package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenPack feeds arbitrary bytes to Open as a pack. Open and Load
// must never panic, and an entry is only ever served with a payload
// that matches its checksum and the bytes at its offset in the file.
// Seeds: a valid two-entry pack, the stale-schema fixtures, and empty.
func FuzzOpenPack(f *testing.F) {
	dir := f.TempDir()
	commit(f, openStore(f, dir), mixedPack()...)
	for _, name := range packFiles(f, dir) {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "artifacts", "*"+fileExt))
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})

	// One directory for every input: Open leaves at most this one file
	// behind, and the next input overwrites it.
	path := filepath.Join(f.TempDir(), "v9-0000000000000001"+fileExt)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(filepath.Dir(path), Options{})
		if err != nil {
			t.Fatal(err)
		}
		listed := map[string]EntryInfo{}
		for _, e := range s.List() {
			listed[e.ID] = e
		}
		for _, it := range mixedPack() {
			var got []byte
			if !s.Load(it.kind, it.key, func(p []byte) error {
				got = append([]byte(nil), p...)
				return nil
			}) {
				continue
			}
			e, ok := listed[entryID(it.kind, it.key.String())]
			if !ok {
				t.Fatalf("%s entry served without being indexed", it.kind)
			}
			if sumHex(got) != e.Sum {
				t.Fatalf("%s entry served with a payload that fails its sum", it.kind)
			}
			if e.Offset < 0 || e.Offset+e.Size > int64(len(data)) || !bytes.Equal(got, data[e.Offset:e.Offset+e.Size]) {
				t.Fatalf("%s entry served bytes other than its pack's at %d+%d", it.kind, e.Offset, e.Size)
			}
		}
	})
}
