package harness

import (
	"fmt"
	"sort"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// oracleFingerprint is the fmt-built fingerprint Layout replaced: the
// condition's registers as "t:r=v" parts, sorted, then every location as
// "loc=v", an absent value rendered as 0.
func oracleFingerprint(t *litmus.Test, s litmus.State) string {
	var parts []string
	seen := make(map[string]bool)
	for _, a := range litmus.CondAtoms(t.Exists) {
		if ra, ok := a.(litmus.RegEq); ok {
			key := fmt.Sprintf("%d:%s", ra.Thread, ra.Reg)
			if seen[key] {
				continue
			}
			seen[key] = true
			v, _ := s.Reg(ra.Thread, ra.Reg)
			parts = append(parts, fmt.Sprintf("%s=%d", key, v))
		}
	}
	sort.Strings(parts)
	var mems []string
	for _, loc := range t.Locations() {
		v, _ := s.Mem(loc)
		mems = append(mems, fmt.Sprintf("%s=%d", loc, v))
	}
	return strings.Join(append(parts, mems...), " ")
}

// parseFingerprint is the fmt-based reader Layout replaced: every
// "name=value" part becomes a register ("t:r") or a location.
func parseFingerprint(fp string) (litmus.State, error) {
	s := litmus.NewMapState()
	for _, part := range strings.Fields(fp) {
		eq := strings.SplitN(part, "=", 2)
		if len(eq) != 2 {
			return nil, fmt.Errorf("harness: bad fingerprint part %q", part)
		}
		var v int64
		if _, err := fmt.Sscanf(eq[1], "%d", &v); err != nil {
			return nil, err
		}
		if colon := strings.Index(eq[0], ":"); colon >= 0 {
			var tid int
			if _, err := fmt.Sscanf(eq[0][:colon], "%d", &tid); err != nil {
				return nil, err
			}
			s.SetReg(tid, ptx.Reg(eq[0][colon+1:]), v)
		} else {
			s.SetMem(ptx.Sym(eq[0]), v)
		}
	}
	return s, nil
}

// oracleStars reports whether the oracle stars fingerprint fp of test t:
// it parses and the condition holds on the parsed state.
func oracleStars(t *litmus.Test, fp string) bool {
	s, err := parseFingerprint(fp)
	return err == nil && t.Exists.Eval(s)
}

// oracleString is Outcome.String as it was written over the oracles: fmt
// per line, keys starred through parseFingerprint.
func oracleString(o *Outcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Test %s on %s (%s, %d runs)\n", o.Test.Name, o.Config.Chip.ShortName, o.Config.Incant, o.Runs)
	fmt.Fprintf(&sb, "Histogram (%d states)\n", len(o.Histogram))
	keys := make([]string, 0, len(o.Histogram))
	for k := range o.Histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		marker := ":>"
		if oracleStars(o.Test, k) {
			marker = "*>"
		}
		fmt.Fprintf(&sb, "%-8d %s %s\n", o.Histogram[k], marker, k)
	}
	state := "Never"
	switch {
	case o.Matches == o.Runs:
		state = "Always"
	case o.Matches > 0:
		state = "Sometimes"
	}
	fmt.Fprintf(&sb, "Observation %s %s %d %d\n", o.Test.Name, state, o.Matches, o.Runs-o.Matches)
	return sb.String()
}
