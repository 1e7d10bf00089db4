package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/shard"
)

func TestGatewayPlanMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "manifest.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-plan", "2", "-example", "paper", "-sigma", "3", "-out", out},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("plan mode exit %d: %s", code, stderr.String())
	}
	man, err := shard.LoadManifest(out)
	if err != nil {
		t.Fatal(err)
	}
	if man.Shards != 2 || len(man.Roots) == 0 {
		t.Fatalf("planned manifest: %+v", man)
	}
	if man.Format != shard.ManifestFormatV2 || man.Level1 == nil {
		t.Fatalf("planned manifest is %q with level-1 seal %v, want a sealed %q", man.Format, man.Level1 != nil, shard.ManifestFormatV2)
	}
	if !strings.Contains(stdout.String(), "wrote manifest") {
		t.Fatalf("stdout: %s", stdout.String())
	}
}

func TestGatewayFlagErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // no manifest
		{"-manifest", "no-such-file"},       // unreadable manifest
		{"-plan", "2"},                      // plan without dataset
		{"-plan", "2", "-example", "bogus"}, // unknown example
		// -plan always seals: there is no plan-only manifest flag.
		{"-plan", "2", "-example", "paper", "-seal=false", "-out", filepath.Join(t.TempDir(), "manifest.json")},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestGatewayShardCountMismatch(t *testing.T) {
	out := filepath.Join(t.TempDir(), "manifest.json")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(),
		[]string{"-plan", "2", "-example", "paper", "-sigma", "3", "-out", out},
		&stdout, &stderr); code != 0 {
		t.Fatalf("plan: %s", stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(),
		[]string{"-manifest", out, "-shards", "http://127.0.0.1:1"},
		&stdout, &stderr); code != 2 {
		t.Fatalf("1 URL for 2 shards accepted (exit %d)", code)
	}
	if !strings.Contains(stderr.String(), "declares 2 shards") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

func TestGatewayVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scpm-gateway") {
		t.Fatalf("version output %q", stdout.String())
	}
}
