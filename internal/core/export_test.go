package core

// WithSplitAlways runs f with every plan split, one chunk or many: the
// answers of plans of one chunk, which run the statement whole, are held to
// the split's through it.
func WithSplitAlways(f func()) {
	splitAlways = true
	defer func() { splitAlways = false }()
	f()
}
