package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mhm2sim/internal/atomicfile"
)

// On-disk layout, under Config.DataDir:
//
//	jobs/<id>/spec.json    the JobSpec, written at admission
//	jobs/<id>/ckpt/        pipeline.CheckpointDir (per-round contigs)
//	jobs/<id>/result.json  the shared report (internal/report), on success
//	jobs/<id>/output.fasta final contigs + scaffolds, on success
//	jobs/<id>/status.json  terminal Status (succeeded/failed/canceled)
//
// A job directory with spec.json but no status.json is an in-flight job:
// on daemon restart it is re-queued and its pipeline run resumes from the
// checkpoint directory — the service-level half of the paper pipeline's
// --checkpoint behaviour.

const (
	specFile   = "spec.json"
	ckptDir    = "ckpt"
	resultFile = "result.json"
	outputFile = "output.fasta"
	statusFile = "status.json"
	jobsDir    = "jobs"
)

// jobDir returns the directory of one job.
func jobDir(dataDir, id string) string { return filepath.Join(dataDir, jobsDir, id) }

// jobIDNum parses the numeric suffix of a job ID ("job-000017" → 17).
func jobIDNum(id string) (int, bool) {
	v, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// formatJobID renders the n-th job ID.
func formatJobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// writeJSONFile atomically persists v as indented JSON.
func writeJSONFile(path string, v any) error {
	_, err := atomicfile.Write(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
	return err
}

// saveSpec persists a newly admitted job.
func saveSpec(dataDir, id string, spec JobSpec) error {
	dir := jobDir(dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, specFile), spec)
}

// saveStatus persists a terminal job status.
func saveStatus(dataDir string, st Status) error {
	return writeJSONFile(filepath.Join(jobDir(dataDir, st.ID), statusFile), st)
}

// loadedJob is one persisted job found at startup.
type loadedJob struct {
	ID   string
	Spec JobSpec
	// Done holds the terminal status when the job finished before the
	// previous daemon exited; nil means in-flight (re-queue and resume).
	Done *Status
}

// loadJobs scans the data directory, returning persisted jobs in ID order
// plus the next free job number.
func loadJobs(dataDir string) ([]loadedJob, int, error) {
	entries, err := os.ReadDir(filepath.Join(dataDir, jobsDir))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var jobs []loadedJob
	next := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		n, ok := jobIDNum(id)
		if !ok {
			continue
		}
		if n+1 > next {
			next = n + 1
		}
		specB, err := os.ReadFile(filepath.Join(jobDir(dataDir, id), specFile))
		if err != nil {
			// A directory without a readable spec was interrupted mid-admission;
			// nothing can be resumed from it.
			continue
		}
		// Leniently: a spec an older daemon persisted with a field JobSpec
		// has since dropped still resumes.
		var spec JobSpec
		if err := json.Unmarshal(specB, &spec); err != nil {
			return nil, 0, fmt.Errorf("service: corrupt spec for %s: %w", id, err)
		}
		lj := loadedJob{ID: id, Spec: spec}
		if stB, err := os.ReadFile(filepath.Join(jobDir(dataDir, id), statusFile)); err == nil {
			var st Status
			if err := json.Unmarshal(stB, &st); err != nil {
				return nil, 0, fmt.Errorf("service: corrupt status for %s: %w", id, err)
			}
			if st.State.Terminal() {
				lj.Done = &st
			}
		}
		jobs = append(jobs, lj)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	return jobs, next, nil
}
