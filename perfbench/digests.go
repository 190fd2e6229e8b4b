package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// digests.json holds, per workload and churn seed, the digest of every
// cell's result as the simulator produced it when the digest was recorded.
//
//go:embed digests.json
var recordedJSON []byte

// digestBook maps workload → seed → cell key → digest.
type digestBook map[string]map[string]map[string]string

func loadBook(raw []byte) (digestBook, error) {
	b := digestBook{}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

// lookup returns the recorded digests of a workload at a seed, or nil.
func (b digestBook) lookup(workload string, seed uint64) map[string]string {
	return b[workload][strconv.FormatUint(seed, 10)]
}

// digest fingerprints a result: every field of a core.Result or
// core.MultiResult, or the series of a Figure 1 run. %+v prints each
// float in its shortest exact form, so equal digests mean equal bits.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

// record merges one seed's cell digests into the digest file at path,
// creating it if needed.
func record(path, workload string, seed uint64, got map[string]string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		raw, err = []byte("{}"), nil
	}
	if err != nil {
		return err
	}
	b, err := loadBook(raw)
	if err != nil {
		return err
	}
	if b[workload] == nil {
		b[workload] = map[string]map[string]string{}
	}
	b[workload][strconv.FormatUint(seed, 10)] = got
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
