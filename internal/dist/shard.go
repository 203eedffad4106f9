package dist

import (
	"strings"
	"time"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/locassm"
	"mhm2sim/internal/murmur"
)

// Sharding is two-level, MetaHipMer-style: a contig maps to one of V
// virtual shards (V fixed, independent of the rank count), and virtual
// shard v lives on rank v mod N. The virtual shard — not the rank — is the
// unit of batch planning and kernel launch, which is what makes the kernel
// launch list independent of N: changing the rank count only re-deals the
// same shards (and therefore the same batches, in the same canonical
// order) onto more or fewer devices. See DESIGN.md §8.
//
// The contig → shard half of the mapping is pluggable (ShardMap): the
// default hashes contig IDs, and the component policy co-locates whole de
// Bruijn components (DESIGN.md §14). The shard → rank half (shardDeal)
// stays common to both, including the re-deal over survivors after an
// eviction.

// DefaultVirtualShards is every run's virtual-shard count. It bounds the
// useful rank count and fixes the batch granularity of the distributed
// local assembly, so runs at any rank count plan the same kernel launches.
const DefaultVirtualShards = 32

// Shard-map policies: how contigs are assigned to virtual shards.
const (
	// ShardHash is the classic two-level MetaHipMer deal: contig ID hashes
	// to a virtual shard, shard v lives on rank v mod N.
	ShardHash = "hash"
	// ShardComponent runs a connected-components pass over the round's
	// contig graph and assigns whole components to virtual shards with LPT
	// bin packing, so contigs that exchange reads or adjoin in the de
	// Bruijn graph are co-located (see components.go).
	ShardComponent = "component"
)

// ShardMap assigns contigs to virtual shards. Implementations must be pure
// functions of the round's global workload (never of the rank count or any
// per-rank state): the shard — not the rank — is the unit of batch
// planning, and a ShardMap independent of N is what keeps contigs,
// scaffolds, and kernel launch lists bit-identical for every rank count.
type ShardMap interface {
	// Shard returns the virtual shard of a contig in [0, shards).
	Shard(ctgID int64) int
}

// shardPolicy is everything a round does differently under one shard policy
// or the other: the round's ShardMap, the byte matrix of its read exchange
// and the byte matrix of its closing contig exchange. The runtime builds one
// per run (newShardPolicy) and never looks at the policy name again; state a
// policy carries between rounds lives in its value.
type shardPolicy interface {
	roundShardMap(k int, ctgs []*locassm.CtgWithReads) ShardMap
	exchangeMatrix(ctgs []*locassm.CtgWithReads, smap ShardMap, deal *shardDeal, ranks int) [][]int64
	gatherMatrix(ctgs []*locassm.CtgWithReads, results []locassm.Result, smap ShardMap, deal *shardDeal, ranks int) [][]int64
	// components returns the per-round component counts and the accumulated
	// wall time of the passes that found them (nil, 0 when no pass runs).
	components() ([]int, time.Duration)
}

// newShardPolicy builds the run's policy value from a validated ShardPolicy
// name. The component policy asks mem whether a read's last residence is
// still a member.
func newShardPolicy(name string, shards int, mem *Membership) shardPolicy {
	if name == ShardComponent {
		return &componentPolicy{shards: shards, mem: mem, residence: make(map[string]int)}
	}
	return hashShardMap{shards}
}

// hashShardMap is the hash policy. It is stateless, so the one value is both
// the policy and every round's map.
type hashShardMap struct{ shards int }

func (m hashShardMap) Shard(id int64) int { return VirtualShard(id, m.shards) }

func (m hashShardMap) roundShardMap(int, []*locassm.CtgWithReads) ShardMap { return m }

func (m hashShardMap) components() ([]int, time.Duration) { return nil, 0 }

// exchangeMatrix builds the all-to-all byte matrix of the per-round read
// routing under the hash policy: every candidate read travels from its home
// rank to the live rank owning the contig it aligned to, once per (contig,
// side) it is a candidate for — exactly as MHM2 routes one aggregated record
// per alignment. Rows and columns of evicted ranks stay zero. Self-destined
// records (read home == contig owner) count as rank-local bytes in the
// fabric, never wire traffic.
func (hashShardMap) exchangeMatrix(ctgs []*locassm.CtgWithReads, smap ShardMap, deal *shardDeal, ranks int) [][]int64 {
	matrix := newMatrix(ranks)
	for _, c := range ctgs {
		owner := deal.rankOf(smap.Shard(c.ID))
		for i := range c.LeftReads {
			matrix[deal.readHome(c.LeftReads[i].ID)][owner] += readMsgBytes(&c.LeftReads[i])
		}
		for i := range c.RightReads {
			matrix[deal.readHome(c.RightReads[i].ID)][owner] += readMsgBytes(&c.RightReads[i])
		}
	}
	return matrix
}

// gatherMatrix builds the byte matrix of the post-round contig allgather
// under the hash policy: each owner ships every contig it owns — at its
// post-assembly extended length, computed from the round's results — to all
// other live ranks, so every live rank holds the replicated alignment index
// for the next round.
func (hashShardMap) gatherMatrix(ctgs []*locassm.CtgWithReads, results []locassm.Result, smap ShardMap, deal *shardDeal, ranks int) [][]int64 {
	matrix := newMatrix(ranks)
	for i, c := range ctgs {
		owner := deal.rankOf(smap.Shard(c.ID))
		bytes := int64(len(results[i].LeftExt) + len(c.Seq) + len(results[i].RightExt) + recordOverheadBytes)
		for _, d := range deal.live {
			if d != owner {
				matrix[owner][d] += bytes
			}
		}
	}
	return matrix
}

// Seeds for the two hash spaces, chosen once so placement is stable across
// processes and runs.
const (
	shardSeed = 0x6d686d32 // "mhm2"
	readSeed  = 0x72656164 // "read"
)

// VirtualShard maps a contig ID to its virtual shard in [0, shards).
func VirtualShard(ctgID int64, shards int) int {
	return int(murmur.Hash64Word(uint64(ctgID), 0, shardSeed) % uint64(shards))
}

// ReadHomeRank maps a read to the rank that holds (and aligned) it. The
// ".merged" suffix the merge stage appends is stripped first, so a merged
// read lives where its originating pair was scattered.
func ReadHomeRank(id string, ranks int) int {
	id = strings.TrimSuffix(id, ".merged")
	return int(murmur.Hash64A([]byte(id), readSeed) % uint64(ranks))
}

// shardDeal maps virtual shards onto the currently-live ranks. With every
// rank alive it reduces to the static deal (shard s on rank s mod N); after
// evictions the same shards are re-dealt round-robin over the survivors, so
// ownership stays a deterministic, collision-free partition keyed only by
// the live set — which is what keeps contigs bit-identical across fault
// schedules: the shard (and its canonical batch plan) never changes, only
// the device that executes it.
type shardDeal struct {
	shards int
	live   []int // ascending rank IDs
}

// newShardDeal builds a deal of the given shard count over the live ranks
// (which must be non-empty and sorted ascending).
func newShardDeal(shards int, live []int) *shardDeal {
	return &shardDeal{shards: shards, live: live}
}

// rankOf returns the live rank owning a virtual shard.
func (d *shardDeal) rankOf(shard int) int {
	return d.live[shard%len(d.live)]
}

// readHome returns the live rank holding a read: the same hash as
// ReadHomeRank, indexed into the survivors so a crashed rank's reads have a
// deterministic new home.
func (d *shardDeal) readHome(id string) int {
	return d.live[ReadHomeRank(id, len(d.live))]
}

// shardContigs partitions the round's contigs into virtual shards under
// the given shard map, preserving input order inside each shard. The
// returned index slices map each shard's contigs back to their global
// positions.
func shardContigs(ctgs []*locassm.CtgWithReads, smap ShardMap, shards int) (byShard [][]*locassm.CtgWithReads, idx [][]int) {
	byShard = make([][]*locassm.CtgWithReads, shards)
	idx = make([][]int, shards)
	for i, c := range ctgs {
		v := smap.Shard(c.ID)
		byShard[v] = append(byShard[v], c)
		idx[v] = append(idx[v], i)
	}
	return byShard, idx
}

// Per-record framing overhead of a routed message: IDs, lengths, and
// orientation/side metadata serialized alongside the payload.
const recordOverheadBytes = 16

// readMsgBytes is the wire size of one routed candidate read: sequence,
// qualities, identifier, and framing.
func readMsgBytes(r *dna.Read) int64 {
	return int64(len(r.Seq) + len(r.Qual) + len(r.ID) + recordOverheadBytes)
}

func newMatrix(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	return m
}

// movedOwners compares two deals of the same shards: matrix[src][dst] is the
// contig-record bytes whose owner moved from rank src to rank dst, total
// their sum. A join ships the matrix as its bootstrap exchange; an eviction
// only accounts the total, since survivors adopt replicas they already hold.
func movedOwners(ctgs []*locassm.CtgWithReads, smap ShardMap, before, after *shardDeal, ranks int) (matrix [][]int64, total int64) {
	matrix = newMatrix(ranks)
	for _, c := range ctgs {
		s := smap.Shard(c.ID)
		if src, dst := before.rankOf(s), after.rankOf(s); src != dst {
			b := int64(len(c.Seq) + recordOverheadBytes)
			matrix[src][dst] += b
			total += b
		}
	}
	return matrix, total
}
