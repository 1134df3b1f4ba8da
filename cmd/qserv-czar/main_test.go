package main

import "testing"

func TestParseWorkerList(t *testing.T) {
	addrs, err := parseWorkerList("w0=1.2.3.4:7001, w1=1.2.3.4:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs["w0"] != "1.2.3.4:7001" || addrs["w1"] != "1.2.3.4:7002" {
		t.Errorf("parsed: %v", addrs)
	}
	for _, bad := range []string{"", "w0", "w0=", "=addr", "w0=a,w0=b"} {
		if _, err := parseWorkerList(bad); err == nil {
			t.Errorf("parseWorkerList(%q) should fail", bad)
		}
	}
}
