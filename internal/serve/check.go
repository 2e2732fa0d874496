package serve

// check.go is the servecheck runtime sanitizer, mirroring grbcheck
// (internal/grb) and graphguard (internal/graph): the assertion code is
// always compiled — so gapvet's tag-unaware loader sees one consistent parse
// — but armed only when the binary is built with -tags=servecheck. Armed, a
// pool drain that finds outstanding machine leases panics naming the count:
// a leaked lease is a machine no future query can ever use, the serving-layer
// analogue of a lost goroutine, and exactly the invariant the static
// lease-return rule proves per-function. The runtime check closes the loop
// across functions, retries, and fault paths the static rule cannot see.
//
// The same tag guards the published PR/CC snapshots (snapshot.go): every
// hit shares one snapshot's slices, so a single write through a response
// would corrupt every later answer for that graph epoch. Armed, publish
// records a checksum of the snapshot and every hit re-checks it, panicking
// (answered INTERNAL by the hit path) on a mismatch.

import (
	"fmt"
	"math"
)

// checkEnabled is armed by the init in check_servecheck.go under
// -tags=servecheck.
var checkEnabled = false

// CheckEnabled reports whether the binary was built with the servecheck tag.
// Tests that need the armed assertion skip themselves when it is false.
func CheckEnabled() bool { return checkEnabled }

// leaseLeakCheck asserts the outstanding-lease count is zero at drain,
// panicking under -tags=servecheck. Unarmed it does nothing; the pool then
// reports the leak as an ordinary drain error.
func leaseLeakCheck(outstanding int64) {
	if checkEnabled && outstanding != 0 {
		panic(fmt.Sprintf("servecheck: %d machine lease(s) still outstanding at drain — every Acquire must reach Release or Abandon", outstanding))
	}
}

// snapshotCheck asserts a published snapshot still matches the checksum
// taken at publish, panicking under -tags=servecheck. Unarmed it does
// nothing, so hits pay no O(n) re-hash.
func snapshotCheck(sn *snapshot) {
	if checkEnabled {
		if got := sn.checksum(); got != sn.sum {
			panic(fmt.Sprintf("servecheck: snapshot modified since publish (checksum %#x, published %#x) — cached answers must be read-only", got, sn.sum))
		}
	}
}

// checksum hashes every field a hit reads: the top-k entries and labels in
// order, and the size table order-independently (map iteration is random).
func (sn *snapshot) checksum() uint64 {
	h := splitmix64(uint64(len(sn.top))<<32 | uint64(len(sn.labels)))
	for _, e := range sn.top {
		h = splitmix64(h ^ uint64(e.V))
		h = splitmix64(h ^ math.Float64bits(e.Score))
	}
	for _, l := range sn.labels {
		h = splitmix64(h ^ uint64(uint32(l)))
	}
	var sizes uint64
	for l, n := range sn.sizes {
		sizes += splitmix64(uint64(uint32(l))<<32 ^ splitmix64(uint64(n)))
	}
	return h ^ sizes
}
