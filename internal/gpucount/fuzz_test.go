package gpucount

import (
	"math/rand"
	"testing"

	"mhm2sim/internal/dna"
	"mhm2sim/internal/kmer"
)

// FuzzCountBudgetMatchesHost differentially checks budget counting against
// dbg.Count over random reads with N and lower-case bases, every k in
// [4, kmer.MaxK], budgets from the minimum up, planned or forced pass counts
// (a forced count too small for the table spills and re-plans), and MinCount
// 1–3: after Filter(MinCount) the two tables are equal. Run with
//
//	go test -run FuzzCountBudgetMatchesHost -fuzz FuzzCountBudgetMatchesHost ./internal/gpucount
//
// to explore beyond the seed corpus, which runs under plain `go test`.
func FuzzCountBudgetMatchesHost(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(120), uint8(17), uint16(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(2), uint8(12), uint8(200), uint8(51), uint16(64), uint8(3), uint8(2), uint8(20))
	f.Add(int64(3), uint8(39), uint8(255), uint8(124), uint16(1000), uint8(1), uint8(0), uint8(60))
	f.Add(int64(4), uint8(5), uint8(9), uint8(0), uint16(7), uint8(8), uint8(2), uint8(255))

	f.Fuzz(func(t *testing.T, seed int64, nReads, readLen, kb uint8, budgetKiB uint16, passes, minCount, impure uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := 4 + int(kb)%(kmer.MaxK-3)
		cfg := BudgetConfig{
			MemBudget: MinMemBudget + int64(budgetKiB%1024)<<10,
			MinCount:  1 + uint32(minCount%3),
			Passes:    int(passes % 9),
		}
		// Half the reads appear twice, so counts reach MinCount; impure sets
		// the rate of N and lower-case bases.
		seqs := make([][]byte, 1+int(nReads)%40)
		for i := range seqs {
			seqs[i] = make([]byte, readLen)
			for j := range seqs[i] {
				seqs[i][j] = dna.Alphabet[rng.Intn(4)]
				if r := rng.Intn(512); r < int(impure) {
					seqs[i][j] = "Nn"[r&1]
				} else if r < 2*int(impure) {
					seqs[i][j] |= 0x20
				}
			}
		}
		seqs = append(seqs, seqs[:len(seqs)/2]...)

		dev := testDev()
		defer dev.Close()
		tab, _, err := CountBudget(dev, seqs, k, cfg)
		if err != nil {
			t.Fatalf("k=%d %+v: %v", k, cfg, err)
		}
		tab.Filter(cfg.MinCount)
		tablesEqual(t, tab, hostFiltered(t, seqs, k, cfg.MinCount), seqs, k)
	})
}
