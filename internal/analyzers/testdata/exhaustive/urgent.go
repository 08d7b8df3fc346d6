package exhaustive

// PriorityUrgent extends the Priority enum from a second file. The
// analyzer registers and checks per package, so the switch in
// exhaustive.go, which covers every value declared there, still reports
// this one.
const PriorityUrgent Priority = 2
