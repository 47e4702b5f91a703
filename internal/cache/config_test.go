package cache

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDesignSpaceMatchesTable1(t *testing.T) {
	want := []string{
		"2KB_1W_16B", "2KB_1W_32B", "2KB_1W_64B",
		"4KB_1W_16B", "4KB_1W_32B", "4KB_1W_64B",
		"4KB_2W_16B", "4KB_2W_32B", "4KB_2W_64B",
		"8KB_1W_16B", "8KB_1W_32B", "8KB_1W_64B",
		"8KB_2W_16B", "8KB_2W_32B", "8KB_2W_64B",
		"8KB_4W_16B", "8KB_4W_32B", "8KB_4W_64B",
	}
	got := DesignSpace()
	if len(got) != len(want) {
		t.Fatalf("design space has %d entries, want %d (Table 1)", len(got), len(want))
	}
	for i, c := range got {
		if c.String() != want[i] {
			t.Errorf("design space[%d] = %s, want %s", i, c, want[i])
		}
	}
}

func TestDesignSpaceAllValid(t *testing.T) {
	for _, c := range DesignSpace() {
		if !c.Valid() {
			t.Errorf("config %s reported invalid", c)
		}
		if !c.InDesignSpace() {
			t.Errorf("config %s not recognized as in design space", c)
		}
		if c.Sets() < 1 {
			t.Errorf("config %s has %d sets", c, c.Sets())
		}
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	for _, c := range DesignSpace() {
		got, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip %s -> %s", c, got)
		}
	}
}

func TestParseConfigCaseInsensitive(t *testing.T) {
	got, err := ParseConfig(" 8kb_4w_64b ")
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if got != BaseConfig {
		t.Errorf("got %v, want %v", got, BaseConfig)
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		"",
		"8KB_4W",
		"8KB_4W_64B_X",
		"8MB_4W_64B",
		"8KB_4X_64B",
		"0KB_1W_16B",
		"-2KB_1W_16B",
		"2KB_4W_64B",  // 2KB cannot host 4 ways of 64B in a pow2 layout? actually 2048/(4*64)=8 sets, valid geometry but...
		"3KB_1W_16B",  // non power of two
		"2KB_1W_15B",  // non power of two line
		"1KB_4W_512B", // fewer bytes than one way*line
	}
	for _, s := range bad {
		if s == "2KB_4W_64B" {
			// Geometrically realizable; only excluded from Table 1, so
			// ParseConfig accepts it. Verify InDesignSpace rejects it.
			c, err := ParseConfig(s)
			if err != nil {
				t.Errorf("ParseConfig(%q) unexpectedly failed: %v", s, err)
				continue
			}
			if c.InDesignSpace() {
				t.Errorf("%q should not be in the Table 1 design space", s)
			}
			continue
		}
		if _, err := ParseConfig(s); err == nil {
			t.Errorf("ParseConfig(%q) succeeded, want error", s)
		}
	}
}

func TestConfigsForSizeSubsets(t *testing.T) {
	cases := []struct {
		sizeKB int
		count  int
	}{
		{2, 3}, {4, 6}, {8, 9},
	}
	total := 0
	for _, tc := range cases {
		got := ConfigsForSize(tc.sizeKB)
		if len(got) != tc.count {
			t.Errorf("ConfigsForSize(%d) = %d configs, want %d", tc.sizeKB, len(got), tc.count)
		}
		for _, c := range got {
			if c.SizeKB != tc.sizeKB {
				t.Errorf("ConfigsForSize(%d) returned %s", tc.sizeKB, c)
			}
		}
		total += len(got)
	}
	if total != 18 {
		t.Errorf("core subsets cover %d configs, want 18", total)
	}
}

func TestSizesAndAssociativities(t *testing.T) {
	wantSizes := []int{2, 4, 8}
	got := Sizes()
	if len(got) != len(wantSizes) {
		t.Fatalf("Sizes() = %v", got)
	}
	for i := range wantSizes {
		if got[i] != wantSizes[i] {
			t.Errorf("Sizes()[%d] = %d, want %d", i, got[i], wantSizes[i])
		}
	}
	if a := Associativities(2); len(a) != 1 || a[0] != 1 {
		t.Errorf("Associativities(2) = %v, want [1]", a)
	}
	if a := Associativities(8); len(a) != 3 || a[2] != 4 {
		t.Errorf("Associativities(8) = %v, want [1 2 4]", a)
	}
	if l := LineSizes(); len(l) != 3 || l[0] != 16 || l[2] != 64 {
		t.Errorf("LineSizes() = %v", l)
	}
}

func TestCoreSizesMatchFigure1(t *testing.T) {
	want := []int{2, 4, 8, 8}
	if len(CoreSizesKB) != len(want) {
		t.Fatalf("CoreSizesKB = %v", CoreSizesKB)
	}
	for i := range want {
		if CoreSizesKB[i] != want[i] {
			t.Errorf("CoreSizesKB[%d] = %d, want %d", i, CoreSizesKB[i], want[i])
		}
	}
}

func TestBaseConfigIsLargest(t *testing.T) {
	if !BaseConfig.InDesignSpace() {
		t.Fatal("base config not in design space")
	}
	for _, c := range DesignSpace() {
		if c.SizeKB > BaseConfig.SizeKB || (c.SizeKB == BaseConfig.SizeKB && c.Ways > BaseConfig.Ways) {
			t.Errorf("config %s exceeds base %s", c, BaseConfig)
		}
	}
}

// Property: parsing the string form of any valid power-of-two geometry
// reproduces the config.
func TestParseConfigQuick(t *testing.T) {
	f := func(si, wi, li uint8) bool {
		c := Config{
			SizeKB:    1 << (si % 5),   // 1..16 KB
			Ways:      1 << (wi % 4),   // 1..8
			LineBytes: 8 << (li%4 + 1), // 16..128
		}
		if !c.Valid() {
			return true // skip unrealizable combos
		}
		got, err := ParseConfig(c.String())
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sets()*Ways*LineBytes == SizeBytes for every design-space config.
func TestGeometryInvariant(t *testing.T) {
	for _, c := range DesignSpace() {
		if c.Sets()*c.Ways*c.LineBytes != c.SizeBytes() {
			t.Errorf("%s: sets*ways*line = %d, want %d",
				c, c.Sets()*c.Ways*c.LineBytes, c.SizeBytes())
		}
	}
}

// TestSharedViewsAppendSafe pins the read-only contract's safety net:
// every shared design-space view has capacity equal to its length, so a
// caller's append copies instead of writing into the package tables.
func TestSharedViewsAppendSafe(t *testing.T) {
	space := slices.Clone(DesignSpace())
	sizes := slices.Clone(Sizes())
	lines := slices.Clone(LineSizes())
	cfgs := map[int][]Config{}
	assocs := map[int][]int{}
	for _, s := range sizes {
		cfgs[s] = slices.Clone(ConfigsForSize(s))
		assocs[s] = slices.Clone(Associativities(s))
	}

	junk := Config{SizeKB: 64, Ways: 8, LineBytes: 128}
	_ = append(DesignSpace(), junk)
	_ = append(Sizes(), 64)
	_ = append(LineSizes(), 128)
	for _, s := range sizes {
		// ConfigsForSize(2) ends where the 4 KB run begins: an in-place
		// append would overwrite 4KB_1W_16B.
		_ = append(ConfigsForSize(s), junk)
		_ = append(Associativities(s), 8)
	}

	if !slices.Equal(DesignSpace(), space) || !slices.Equal(Sizes(), sizes) || !slices.Equal(LineSizes(), lines) {
		t.Fatalf("an append wrote into the shared tables: %v %v %v", DesignSpace(), Sizes(), LineSizes())
	}
	for _, s := range sizes {
		if !slices.Equal(ConfigsForSize(s), cfgs[s]) || !slices.Equal(Associativities(s), assocs[s]) {
			t.Errorf("size %d views changed: %v %v", s, ConfigsForSize(s), Associativities(s))
		}
	}
	if ConfigsForSize(3) != nil || Associativities(3) != nil {
		t.Errorf("size outside Table 1: %v %v, want nil", ConfigsForSize(3), Associativities(3))
	}
}
