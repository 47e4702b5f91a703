package energy

// NewL2Default wraps the default model with default L2 parameters.
func NewL2Default() *L2Model {
	m, err := NewL2(NewDefault(), DefaultL2Params())
	if err != nil {
		panic(err) // unreachable: defaults are valid
	}
	return m
}
