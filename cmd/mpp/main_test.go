package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDemo(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo", "-demolen", "400", "-support", "0.01", "-top", "3", "-v"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"MPPm", "frequent patterns", "level", "sup="} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunStdinFASTA(t *testing.T) {
	fasta := ">tiny\nACGTACGTACGTACGTACGTACGTACGTACGT\n"
	var out bytes.Buffer
	err := run([]string{"-gapmin", "1", "-gapmax", "2", "-support", "0.0001", "-algo", "mpp"},
		strings.NewReader(fasta), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MPP on tiny") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunInputFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.fa")
	if err := os.WriteFile(path, []byte(">f\nACGTACGTACGTACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-gapmin", "0", "-gapmax", "1", "-support", "0.01"},
		strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MPPm on f") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"mpp", "mppm", "adaptive", "enumerate"} {
		var out bytes.Buffer
		err := run([]string{"-demo", "-demolen", "300", "-support", "0.05", "-algo", algo, "-top", "1"},
			strings.NewReader(""), &out)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-demo", "-algo", "nope"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-demo", "-gapmin", "5", "-gapmax", "2"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad gap accepted")
	}
	if err := run([]string{"-in", "/does/not/exist"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{}, strings.NewReader("not fasta"), &out); err == nil {
		t.Error("garbage stdin accepted")
	}
	if err := run([]string{"-demo", "-alphabet", "X"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad alphabet accepted")
	}
}

func TestPickAlphabet(t *testing.T) {
	a, err := pickAlphabet("protein")
	if err != nil || a.Size() != 20 {
		t.Errorf("protein alphabet: %v %v", a, err)
	}
	c, err := pickAlphabet("xyz")
	if err != nil || c.Size() != 3 {
		t.Errorf("custom alphabet: %v %v", c, err)
	}
}

func TestRunQueryMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo", "-demolen", "200", "-pattern", "A..T"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sup = ") {
		t.Errorf("query output: %s", out.String())
	}
	if err := run([]string{"-demo", "-pattern", "A..(bad"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad query pattern accepted")
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo", "-demolen", "200", "-support", "0.05", "-json"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Algorithm int
		SeqLen    int
		Patterns  []struct {
			Chars   string
			Support int64
		}
	}
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if decoded.SeqLen != 200 || len(decoded.Patterns) == 0 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestRunLevelMetricsDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "levels.json")
	var out bytes.Buffer
	err := run([]string{"-demo", "-demolen", "400", "-support", "0.01", "-algo", "mpp",
		"-level-metrics", path}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []levelDump
	if err := json.Unmarshal(raw, &dumps); err != nil {
		t.Fatalf("decoding level metrics dump: %v", err)
	}
	if len(dumps) != 1 {
		t.Fatalf("dump holds %d subjects, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Algorithm != "MPP" || d.SequenceLen != 400 || len(d.Levels) == 0 {
		t.Fatalf("dump = %+v", d)
	}
	for _, lv := range d.Levels {
		if lv.ZeroSupport+lv.PrunedByLambda+lv.Abandoned+lv.Kept != lv.Candidates {
			t.Errorf("level %d: candidate accounting broken in dump: %+v", lv.Level, lv)
		}
	}
}

func TestRunLevelMetricsToStdout(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo", "-demolen", "300", "-support", "0.05",
		"-level-metrics", "-", "-top", "0"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"levels"`) {
		t.Errorf("stdout dump missing levels array:\n%s", out.String())
	}
}
