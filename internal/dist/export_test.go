package dist

// BuildPairs hands the package's one test input to its external tests.
var BuildPairs = buildPairs
