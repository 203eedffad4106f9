package pipeline

// The external engine-parity test shares the in-package fixtures.
var (
	BuildPairs = buildPairs
	TestConfig = testPipelineConfig
	Reference  = reference
)
