package ssd

// stepFunc adapts a plain function to the stepper interface, so tests
// can drive a station directly and observe when it resumes its owner.
type stepFunc func()

func (f stepFunc) step() { f() }
