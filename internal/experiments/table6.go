package experiments

import (
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Table 6 of the paper: observations for the 16 incantation combinations,
// Titan and HD 7970, tests coRR (intra-CTA) and lb/mp/sb (inter-CTA).
var (
	paperTable6Titan = map[string][]int{
		"coRR": {0, 0, 0, 0, 0, 1235, 0, 9774, 161, 118, 847, 362, 632, 3384, 3993, 9985},
		"lb":   {0, 0, 0, 0, 0, 0, 0, 0, 181, 1067, 1555, 2247, 4, 37, 83, 486},
		"mp":   {0, 0, 0, 0, 0, 621, 0, 2921, 315, 1128, 2372, 4347, 7, 94, 442, 2888},
		"sb":   {0, 0, 0, 0, 0, 0, 0, 0, 462, 1403, 3308, 6673, 3, 50, 88, 749},
	}
	paperTable6HD7970 = map[string][]int{
		"coRR": {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"lb":   {10959, 8979, 31895, 29092, 13510, 12729, 29779, 26737, 5094, 9360, 37624, 38664, 5321, 10054, 32796, 34196},
		"mp":   {212, 31, 243, 158, 277, 46, 318, 247, 473, 217, 1289, 563, 611, 339, 2542, 1628},
		"sb":   {0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
)

// table6Tests are the four idioms of Table 6 (all on global memory).
func table6Tests() []*litmus.Test {
	return []*litmus.Test{
		litmus.CoRR(),             // intra-CTA
		litmus.LB(litmus.NoFence), // inter-CTA
		litmus.MP(litmus.NoFence), // inter-CTA
		litmus.SBGlobal(),         // inter-CTA
	}
}

var table6Tags = []string{"coRR", "lb", "mp", "sb"}

// Table6 reproduces the incantation grid for one chip (Titan or HD7970 in
// the paper): one campaign over the four idioms × all 16 incantation
// combinations. Column k (1-based) corresponds to chip.AllIncants()[k-1];
// each cell's seed is fixed by its test and incantation indices.
func Table6(p *chip.Profile, o Opts) (*Table, error) {
	paper := paperTable6Titan
	if p.ShortName == "HD7970" {
		paper = paperTable6HD7970
	}
	cols := make([]string, 16)
	for i, inc := range chip.AllIncants() {
		cols[i] = inc.String()
	}
	agg, err := campaign.Run(campaign.Spec{
		Tests:   table6Tests(),
		Chips:   []*chip.Profile{p},
		Incants: chip.AllIncants(),
		Runs:    o.Runs,
		SeedFn: func(j campaign.Job) int64 {
			return o.Seed + int64(j.TestIndex)*7_000_003 + int64(j.IncantIndex)*1_000_003
		},
		Sink: o.Sink,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "Table 6 (" + p.ShortName + ")", Title: "observations per incantation combination",
		Columns: cols,
		RowTags: table6Tags,
		Runs:    o.Runs,
	}
	for ti := range agg.Tests {
		row := make([]int, 16)
		for ii := 0; ii < 16; ii++ {
			row[ii] = agg.Outcome(ti, 0, ii).Per100k()
		}
		t.Meas = append(t.Meas, row)
		t.Paper = append(t.Paper, paper[table6Tags[ti]])
	}
	return t, nil
}

// Table6KeyClaims checks the paper's headline observations about
// incantations on the Titan reproduction (Sec. 4.3):
//
//  1. sb and lb are never observed without memory stress (columns 1-8);
//  2. bank conflicts alone expose nothing (column 5);
//  3. thread synchronisation boosts inter-CTA tests (column 12 vs 10);
//  4. thread randomisation boosts coRR (column 16 vs 15).
//
// It returns a description per violated claim.
func Table6KeyClaims(t *Table) []string {
	var errs []string
	rowOf := func(tag string) []int {
		for i, rt := range t.RowTags {
			if rt == tag {
				return t.Meas[i]
			}
		}
		return nil
	}
	for _, tag := range []string{"lb", "sb"} {
		row := rowOf(tag)
		for k := 0; k < 8; k++ {
			if row[k] != 0 {
				errs = append(errs, "claim 1: "+tag+" observed without memory stress")
				break
			}
		}
	}
	for _, tag := range table6Tags {
		if rowOf(tag)[4] != 0 {
			errs = append(errs, "claim 2: "+tag+" observed with bank conflicts alone")
		}
	}
	if mp := rowOf("mp"); mp[11] <= mp[9] {
		errs = append(errs, "claim 3: thread synchronisation does not boost mp")
	}
	if corr := rowOf("coRR"); corr[15] <= corr[14] {
		errs = append(errs, "claim 4: thread randomisation does not boost coRR")
	}
	return errs
}
