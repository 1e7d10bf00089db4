package index

// RowsMaterialized reports whether the row tables of x are filled: on a
// booted index only Sets, Patterns and Rebuild fill them.
func RowsMaterialized(x *Index) bool { return x.sets != nil || x.patterns != nil }
