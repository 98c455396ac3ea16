package obs

import (
	"strings"
	"testing"

	"wfrc/internal/mm"
)

func TestWriteInfo(t *testing.T) {
	c := NewCollector()
	st := &mm.OpStats{DeRefs: 42, HelpsGiven: 7}
	defer c.Attach("waitfree-shard0", 0, st)()
	defer c.AttachGauge("wfrc_core_ann_scan_violations", "waitfree-shard0", func() int64 { return 3 })()

	var sb strings.Builder
	err := c.WriteInfo(&sb,
		InfoSection{Name: "Server", Fields: []InfoField{
			Field("wfrc_version", "dev"),
			Field("tcp_port", 6379),
		}},
		InfoSection{Name: "Clients", Fields: []InfoField{
			Field("connected_clients", 2),
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Server\r\n",
		"wfrc_version:dev\r\n",
		"tcp_port:6379\r\n",
		"# Clients\r\n",
		"connected_clients:2\r\n",
		"# scheme_waitfree_shard0\r\n",
		"derefs:42\r\n",
		"helps_given:7\r\n",
		"# gauges\r\n",
		"wfrc_core_ann_scan_violations_waitfree_shard0:3\r\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("INFO output missing %q\n%s", want, out)
		}
	}
	// Every line must be CRLF-terminated (redis-cli INFO parsing).
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasSuffix(line, "\r") {
			t.Errorf("line %q not CRLF-terminated", line)
		}
	}
}
