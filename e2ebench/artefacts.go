package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"advmal/internal/core"
	"advmal/internal/index"
)

// Training size of each snapshot: a scaled-down Table I mix that trains
// in about a second on two cores. The benchmark measures the serving
// path, not detection quality.
const (
	trainBenign = 40
	trainMal    = 120
	trainEpochs = 10
	trainWidth  = 2 // fixed data-parallel width: same seed, same weights on any host
)

// artefacts are the files the servers load, built from the seed before
// any timing starts.
type artefacts struct {
	modelA, corpus string // file paths
	gobs           map[byte][]byte
	snaps          map[byte]*snapshot
	corpusIdx      *index.Corpus
}

// trainSnapshot trains one detector from seed and returns its saved gob.
func trainSnapshot(ctx context.Context, seed int64, withCorpus bool) ([]byte, *index.Corpus, error) {
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.NumBenign, cfg.NumMal, cfg.Epochs, cfg.Workers = seed, trainBenign, trainMal, trainEpochs, trainWidth
	sys := core.New(cfg)
	if err := sys.BuildCorpusCtx(ctx); err != nil {
		return nil, nil, err
	}
	if _, err := sys.FitCtx(ctx); err != nil {
		return nil, nil, err
	}
	m, err := sys.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, nil, err
	}
	if !withCorpus {
		return buf.Bytes(), nil, nil
	}
	c, err := sys.BuildCorpusIndex(index.HNSWConfig{}, 0)
	return buf.Bytes(), c, err
}

// buildArtefacts trains snapshot A and its similarity corpus, and with
// swaps snapshot B (another seed, so other weights and another scaler),
// writes them under dir, and loads the oracle's copies from the same
// bytes the servers read.
func buildArtefacts(ctx context.Context, dir string, seed int64, quant, swaps bool) (*artefacts, error) {
	a := &artefacts{
		modelA: filepath.Join(dir, "A.gob"),
		corpus: filepath.Join(dir, "corpus.gob"),
		gobs:   map[byte][]byte{},
		snaps:  map[byte]*snapshot{},
	}
	gobA, corpus, err := trainSnapshot(ctx, genSeed(seed, "train/A"), true)
	if err != nil {
		return nil, fmt.Errorf("training A: %w", err)
	}
	a.gobs['A'] = gobA
	if swaps {
		if a.gobs['B'], _, err = trainSnapshot(ctx, genSeed(seed, "train/B"), false); err != nil {
			return nil, fmt.Errorf("training B: %w", err)
		}
	}
	var cbuf bytes.Buffer
	if err := corpus.Save(&cbuf); err != nil {
		return nil, err
	}
	for path, b := range map[string][]byte{a.modelA: gobA, a.corpus: cbuf.Bytes()} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return nil, err
		}
	}
	if a.corpusIdx, err = index.Load(bytes.NewReader(cbuf.Bytes())); err != nil {
		return nil, err
	}
	for name, b := range a.gobs {
		m, err := core.LoadModel(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		s := &snapshot{model: m}
		if quant {
			if s.quant, err = m.Quantized(); err != nil {
				return nil, err
			}
		}
		a.snaps[name] = s
	}
	return a, nil
}
