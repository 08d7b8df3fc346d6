package workload

import (
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/tradapter"
)

// newStockDriver builds an unmodified Token Ring driver for a test host.
func newStockDriver(k *kernel.Kernel, st *ring.Station) *tradapter.Driver {
	return tradapter.New(k, st, tradapter.StockConfig())
}
