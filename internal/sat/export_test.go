package sat

// WithSeams returns opts with the clause-database test seams set, for
// the package's external tests: coreLBD is the glue tier and gcFrac
// the arena waste that triggers a compaction (0 keeps a default).
func WithSeams(opts Options, coreLBD int, gcFrac float64) Options {
	opts.coreLBD, opts.gcFrac = coreLBD, gcFrac
	return opts
}
