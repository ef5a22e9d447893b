package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestValidateTarget: the -target URL is checked before a run starts, so a
// typoed scheme fails immediately with a clear message instead of surfacing
// as per-op connection errors minutes into a run.
func TestValidateTarget(t *testing.T) {
	valid := []string{
		"http://127.0.0.1:8080",
		"http://localhost:8091/",
		"https://holidayd.internal",
	}
	for _, s := range valid {
		if err := validateTarget(s); err != nil {
			t.Errorf("validateTarget(%q) = %v, want nil", s, err)
		}
	}
	invalid := map[string]string{
		"127.0.0.1:8080":          "not a valid URL", // bare host:port does not parse as a URL
		"localhost:8080":          "scheme",          // parses with scheme "localhost"
		"ftp://host:21":           "scheme",          // wrong protocol
		"http://":                 "no host",         // scheme only
		"http3://example.com":     "scheme",
		"http://bad host:80/path": "not a valid URL",
	}
	for s, want := range invalid {
		err := validateTarget(s)
		if err == nil {
			t.Errorf("validateTarget(%q) accepted", s)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validateTarget(%q) = %q, want mention of %q", s, err, want)
		}
	}
}

// TestDiffWindow: the smoke-level binary≡JSON check against a live handler,
// including spec parsing errors and a mismatching community.
func TestDiffWindow(t *testing.T) {
	reg := service.New(service.Opts{})
	if _, err := reg.Create("demo", 9, [][2]int{{0, 1}, {0, 2}}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()

	if err := diffWindow(srv.URL, "demo,1,52"); err != nil {
		t.Fatalf("identical protocols diffed as different: %v", err)
	}
	for _, spec := range []string{"", "demo", "demo,1", "demo,x,2", ",1,2", "demo,1,2,3"} {
		if err := diffWindow(srv.URL, spec); err == nil {
			t.Errorf("diffWindow accepted malformed spec %q", spec)
		}
	}
	if err := diffWindow(srv.URL, "ghost,1,5"); err == nil {
		t.Error("diffWindow over an unknown community should fail")
	}
	if err := diffWindow(srv.URL, "demo,9,3"); err == nil {
		t.Error("diffWindow over an empty window should fail")
	}
}
