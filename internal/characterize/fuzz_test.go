package characterize

import (
	"bytes"
	"math"
	"os"
	"testing"

	"hetsched/internal/energy"
)

// FuzzLoadCached: whatever bytes sit in a cache entry, the load ends as a
// miss or as a DB that passes validCached, and such a DB answers the
// queries training and scheduling make of it without panicking.
func FuzzLoadCached(f *testing.F) {
	em := energy.NewDefault()
	variants := smallVariants()[:1]
	db, err := CharacterizeWithOptions(variants, em, Options{})
	if err != nil {
		f.Fatal(err)
	}
	key, err := CacheKey(variants, em, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := db.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"BaseCycles":`), []byte(`"BaseCycles":0,"x":`), 1))
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"Hits":`), []byte(`"Hits":1`), 1))
	f.Add([]byte(`{"Records":[]}`))
	f.Add([]byte(`{"Records":[{"ID":0,"Kernel":"a2time","Configs":null}]}`))
	f.Add([]byte("{not json"))
	dir := f.TempDir()
	path := cachePath(dir, key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := LoadCached(dir, key)
		if !ok || !validCached(got, variants) {
			return // a miss
		}
		for i := range got.Records {
			r := &got.Records[i]
			if best := r.BestConfig(); math.IsNaN(best.Energy.Total) || best.Energy.Total < 0 {
				t.Fatalf("record %d: best energy %v", i, best.Energy.Total)
			}
			for _, kb := range []int{2, 4, 8} {
				if _, err := r.BestConfigForSize(kb); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
		}
	})
}
