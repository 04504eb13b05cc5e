package sim

// The phase model's unexported time terms, for the external tests.
var (
	TileSeconds       = (*System).tileSeconds
	CollectiveSeconds = (*System).collectiveSeconds
	WeightCollective  = (*System).weightCollective
	RingBW            = (*System).ringBW
)
