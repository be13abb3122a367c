package machine

// Hot reports whether the fault machinery is active: injection queues
// polled and the golden mirror maintained on every instruction.
func (m *Machine) Hot() bool { return m.hot }
