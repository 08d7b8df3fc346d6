// Package exhaustive is a ctmsvet fixture: every rule of the exhaustive
// analyzer, positive and negative. It mirrors the root package's
// enummap.go registry shape; only types registered in an enumTable
// literal are policed.
package exhaustive

type enumTable[P ~string, C comparable] struct {
	def  P
	vals []enumPair[P, C]
}

type enumPair[P ~string, C comparable] struct {
	pub  P
	core C
}

type Protocol string

const (
	CTMSP     Protocol = "ctmsp"
	StockUnix Protocol = "stock-unix"
)

type Load string

const (
	LoadNone   Load = "none"
	LoadNormal Load = "normal"
	LoadHeavy  Load = "heavy"
)

// Tool is deliberately not registered in any enumTable; switches over it
// are exempt.
type Tool string

const (
	LogicAnalyzer Tool = "logic-analyzer"
	PCAT          Tool = "pcat"
)

var protocolTable = enumTable[Protocol, int]{
	def:  CTMSP,
	vals: []enumPair[Protocol, int]{{CTMSP, 0}, {StockUnix, 1}},
}

var loadTable = enumTable[Load, int]{
	def:  LoadNone,
	vals: []enumPair[Load, int]{{LoadNone, 0}, {LoadNormal, 1}, {LoadHeavy, 2}},
}

func missing(l Load) int {
	switch l { // want `switch over Load misses LoadHeavy`
	case LoadNone:
		return 0
	case LoadNormal:
		return 1
	}
	return 2
}

func covered(l Load) int {
	switch l { // every value covered: fine
	case LoadNone, LoadNormal:
		return 0
	case LoadHeavy:
		return 1
	}
	return 2
}

func defaulted(p Protocol) int {
	switch p { // default present: fine
	case CTMSP:
		return 0
	default:
		return 1
	}
}

func viaConversion(s string) int {
	switch Protocol(s) { // want `switch over Protocol misses StockUnix`
	case CTMSP:
		return 0
	}
	return 1
}

func viaVarDecl(s string) int {
	var p Protocol
	p = Protocol(s)
	switch p { // want `switch over Protocol misses CTMSP`
	case StockUnix:
		return 1
	}
	return 0
}

type spec struct{ load Load }

// The tag's type is invisible syntactically, but the case names Load
// constants, so the switch is classified over Load anyway.
func heuristic(s spec) int {
	switch s.load { // want `switch over Load misses LoadNormal, LoadHeavy`
	case LoadNone:
		return 0
	}
	return 1
}

func unregistered(t Tool) int {
	switch t { // Tool is in no enumTable: exempt
	case LogicAnalyzer:
		return 0
	}
	return 1
}

func notAnEnumTag(n int) int {
	switch n { // plain int switches are exempt
	case 0:
		return 0
	}
	return 1
}

// Phase opts in via the //ctmsvet:enum directive instead of an
// enumTable registration.
//
//ctmsvet:enum
type Phase int

const (
	PhaseIdle Phase = iota
	PhaseRunning
	PhaseDone
	numPhases // num* sentinel: a count, not a value — never required in switches
)

func directiveMissing(ph Phase) int {
	switch ph { // want `switch over Phase misses PhaseDone`
	case PhaseIdle:
		return 0
	case PhaseRunning:
		return 1
	}
	return 2
}

// numPhases is not demanded: covering the three real values suffices.
func directiveCovered(ph Phase) int {
	switch ph {
	case PhaseIdle:
		return 0
	case PhaseRunning:
		return 1
	case PhaseDone:
		return 2
	}
	return int(numPhases)
}

// Mode carries the directive on the TypeSpec line comment rather than
// the doc comment; both spellings register.
type Mode int //ctmsvet:enum

const (
	ModeOff Mode = iota
	ModeOn
)

func lineCommentDirective(m Mode) int {
	switch m { // want `switch over Mode misses ModeOn`
	case ModeOff:
		return 0
	}
	return 1
}

// Priority's last constant, PriorityUrgent, is declared in urgent.go:
// a switch covering every value this file declares still misses it.
//
//ctmsvet:enum
type Priority int

const (
	PriorityLow Priority = iota
	PriorityHigh
)

func crossFile(pr Priority) int {
	switch pr { // want `switch over Priority misses PriorityUrgent`
	case PriorityLow:
		return 0
	case PriorityHigh:
		return 1
	}
	return 2
}
