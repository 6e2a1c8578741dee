package runcache

import (
	"flag"
	"fmt"
	"io"
)

// Flags is the run-cache flag block the fleet CLIs (hiccluster,
// hicsweep, hicfigs) share, installed by RegisterFlags.
type Flags struct {
	Enable bool
	Dir    string
	URL    string
	MaxMB  int
}

// RegisterFlags installs -cache, -cache-dir, -cache-url and
// -cache-max-mb on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Enable, "cache", false, "memoize per-point results in the content-addressed run cache")
	fs.StringVar(&f.Dir, "cache-dir", DefaultDir, "run-cache directory (with -cache)")
	fs.StringVar(&f.URL, "cache-url", "", "share a hicserve coordinator's run cache over HTTP instead of -cache-dir (implies -cache)")
	fs.IntVar(&f.MaxMB, "cache-max-mb", 0, "prune the run cache and warm store to this size at startup, oldest entries first (0 = unbounded)")
	return f
}

// Open returns the store the flags select: the coordinator's store with
// -cache-url (which implies -cache), a disk store at -cache-dir with
// -cache, and nil when caching is off.
func (f *Flags) Open() (*Store, error) {
	switch {
	case f.URL != "":
		return OpenRemote(f.URL), nil
	case f.Enable:
		return Open(f.Dir)
	}
	return nil, nil
}

// PruneStores bounds every non-nil store to maxMB megabytes, least
// recently used entries first (maxMB ≤ 0 = unbounded), and reports on
// logw each store it shrank. A failed prune is reported and skipped:
// the run proceeds over budget rather than not at all. Remote stores
// prune nothing (see Prune).
func PruneStores(logw io.Writer, maxMB int, stores ...*Store) {
	if maxMB <= 0 {
		return
	}
	budget := int64(maxMB) << 20
	for _, s := range stores {
		if s == nil {
			continue
		}
		removed, freed, err := s.Prune(budget)
		switch {
		case err != nil:
			fmt.Fprintf(logw, "runcache: pruning %s: %v\n", s.Dir(), err)
		case removed > 0:
			fmt.Fprintf(logw, "pruned %d entries (%.1f MB) from %s\n",
				removed, float64(freed)/(1<<20), s.Dir())
		}
	}
}
