package runcache

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"
)

// TestFlags drives the shared flag block through parsed command lines:
// which store Open selects, and what -cache-max-mb prunes.
func TestFlags(t *testing.T) {
	const remote = "http://127.0.0.1:9" // never dialled: Open and Prune stay local
	cases := []struct {
		name string
		args []string // "DIR" is replaced by a fresh temp directory
		// want is "" for no store, else the store's Dir().
		want string
		// pruned is how many stores -cache-max-mb must shrink (the
		// selected one plus a warm store, both filled over budget).
		pruned int
	}{
		{name: "no flags", args: nil, want: ""},
		{name: "dir without -cache", args: []string{"-cache-dir", "DIR"}, want: ""},
		{name: "cache", args: []string{"-cache", "-cache-dir", "DIR"}, want: "DIR"},
		{name: "cache-url implies cache", args: []string{"-cache-url", remote},
			want: RemoteURL(remote, RemoteResultsPath)},
		{name: "cache-url wins over cache-dir", args: []string{"-cache", "-cache-dir", "DIR", "-cache-url", remote},
			want: RemoteURL(remote, RemoteResultsPath)},
		{name: "max-mb prunes run cache and warm store", args: []string{"-cache", "-cache-dir", "DIR", "-cache-max-mb", "1"},
			want: "DIR", pruned: 2},
		{name: "max-mb skips a remote store", args: []string{"-cache-url", remote, "-cache-max-mb", "1"},
			want: RemoteURL(remote, RemoteResultsPath), pruned: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.ReplaceAll(a, "DIR", dir)
			}
			want := strings.ReplaceAll(tc.want, "DIR", dir)

			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := RegisterFlags(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			store, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				if store != nil {
					t.Fatalf("Open = store at %s, want nil", store.Dir())
				}
				return
			}
			if store == nil || store.Dir() != want {
				t.Fatalf("Open = %v, want store at %s", store, want)
			}
			if f.MaxMB == 0 {
				return
			}

			warm, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stores := []*Store{warm}
			if store.Dir() == dir {
				stores = append(stores, store)
			}
			for _, s := range stores {
				fillPastMB(t, s, f.MaxMB)
			}
			var log bytes.Buffer
			PruneStores(&log, f.MaxMB, store, warm, nil)
			if got := strings.Count(log.String(), "pruned "); got != tc.pruned {
				t.Errorf("prune messages = %d, want %d:\n%s", got, tc.pruned, log.String())
			}
			if strings.Contains(log.String(), "runcache: pruning") {
				t.Errorf("prune reported an error:\n%s", log.String())
			}
			for _, s := range stores {
				if n, _ := s.Len(); n != 1 {
					t.Errorf("%s holds %d entries after pruning to %d MB, want 1", s.Dir(), n, f.MaxMB)
				}
			}
		})
	}
}

// fillPastMB writes three blobs of 0.6×mb MB each, 1.8× the budget, so
// pruning to mb keeps exactly one.
func fillPastMB(t *testing.T, s *Store, mb int) {
	t.Helper()
	payload := strings.Repeat("x", mb<<20*6/10)
	for i := 0; i < 3; i++ {
		key := Key("flags-test", fmt.Sprint(i))
		if err := s.PutBlob(key, "flags-test", fmt.Sprint(i), payload); err != nil {
			t.Fatal(err)
		}
	}
}
