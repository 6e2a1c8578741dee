package main

// pinned are the default-seed (--seed 1) output digests at full size.
// A run with the default seed must reproduce them; any change that
// moves one changes simulated results, not just speed.
var pinned = map[string]string{
	"des_points": "1c59ec4cb75858c9",
	"fleet.cold": "304e9791f43609fb",
	"fleet.warm": "cd4408bf7a59c0fb",
	// The serve section of cmd/hicbench pins the same query's hash.
	"serve_warm": "5126ebdb4e9b432e",
}

// pinnedDigest returns the digest key must reproduce in this run, if
// one is pinned for it.
func pinnedDigest(key string, o opts) (string, bool) {
	want := pinned[key]
	if o.seed != 1 || o.small || want == "" {
		return "", false
	}
	return want, true
}
