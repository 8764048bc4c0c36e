module eagersgd/benchmarks

go 1.22

require eagersgd v0.0.0

replace eagersgd => ../
