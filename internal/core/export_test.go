package core

// ForceFullPath makes Start simulate every rank even when the trace is
// symmetric, so tests can check the collapsed path against it.
func (s *Simulator) ForceFullPath() { s.forceFull = true }
