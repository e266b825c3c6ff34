package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"permine/internal/corpus"
	"permine/internal/seq"
)

// This file is the /v1/corpus decoder and view: a multi-FASTA input is
// split into one shard per sequence and submitted as one job, whose
// shards checkpoint into the WAL as they end and whose merged result
// (with per-shard provenance and a failed-shard manifest) is served from
// GET /v1/corpus/{id}.

// corpusState is a job state as the corpus view shows it: a corpus reads
// running from submit, its shards queue individually.
func corpusState(s corpus.State) corpus.State {
	if s == corpus.StateQueued {
		return corpus.StateRunning
	}
	return s
}

// corpusView renders a job for /v1/corpus (without the merged result).
func corpusView(v corpus.View) corpus.View {
	v.State = corpusState(v.State)
	return v
}

// corpusViewOf renders a corpus job now, merged result included once it
// is terminal.
func corpusViewOf(j *corpus.Job) corpus.View {
	v := corpusView(j.Snapshot())
	if v.State.Terminal() {
		v.Result = j.Merged()
	}
	return v
}

// corpusRequest is the JSON body of POST /v1/corpus: a multi-FASTA
// payload mined shard-per-sequence under shared parameters.
type corpusRequest struct {
	Name      string     `json:"name,omitempty"`
	Algorithm string     `json:"algorithm"`
	Params    paramsJSON `json:"params"`
	FASTA     string     `json:"fasta"`
	Alphabet  string     `json:"alphabet,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// decodeCorpusRequest parses POST /v1/corpus: a JSON body, or a raw FASTA
// body (text/x-fasta or text/plain) with parameters in the query string.
func decodeCorpusRequest(r *http.Request) (corpusRequest, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "text/x-fasta" || ct == "text/plain" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return corpusRequest{}, fmt.Errorf("reading FASTA body: %w", err)
		}
		jr, err := jobRequestFromQuery(r, string(body))
		if err != nil {
			return corpusRequest{}, err
		}
		return corpusRequest{
			Name:      r.URL.Query().Get("name"),
			Algorithm: jr.Algorithm,
			Params:    jr.Params,
			FASTA:     jr.FASTA,
			Alphabet:  jr.fastaAlphabet,
			TimeoutMS: jr.TimeoutMS,
		}, nil
	}
	var req corpusRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return corpusRequest{}, fmt.Errorf("decoding JSON body: %w", err)
	}
	return req, nil
}

// handleCorpusSubmit implements POST /v1/corpus.
func (s *Server) handleCorpusSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCorpusRequest(r)
	if err != nil {
		if tooLarge(w, err) {
			return
		}
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	algo, params, timeout, err := s.submitArgs(req.Algorithm, req.Params, req.TimeoutMS)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.FASTA == "" {
		apiError(w, http.StatusBadRequest, "missing fasta: a corpus is a multi-FASTA payload")
		return
	}
	alpha, err := resolveAlphabet(req.Alphabet)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seqs, err := seq.ReadFASTA(strings.NewReader(req.FASTA), alpha)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.mgr.SubmitCorpus(r.Context(), req.Name, seqs, algo, params, timeout)
	if s.submitFailed(w, err) {
		return
	}
	writeJSON(w, http.StatusAccepted, corpusView(job.Accepted()))
}

// tooLarge maps a MaxBytesReader overflow to 413 with the limit in the
// message; returns false for other errors.
func tooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	apiError(w, http.StatusRequestEntityTooLarge,
		"request body exceeds the %d-byte limit (see -max-body-bytes)", mbe.Limit)
	return true
}
