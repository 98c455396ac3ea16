package obs

import (
	"fmt"
	"io"
	"strings"
)

// InfoField is one "key:value" line of an INFO section.
type InfoField struct {
	Key   string
	Value string
}

// InfoSection is one "# Name" block of an INFO reply.  The RESP
// front-end contributes server-level sections (Server, Clients, Stats)
// and the Collector appends one section per attached scheme.
type InfoSection struct {
	Name   string
	Fields []InfoField
}

// Field builds an InfoField from any printable value.
func Field(key string, value any) InfoField {
	return InfoField{Key: key, Value: fmt.Sprint(value)}
}

// WriteInfo renders a Redis INFO–compatible text document: "# Section"
// headers followed by "key:value" lines, CRLF-terminated the way
// redis-cli expects.  The caller's extra sections come first, then one
// "scheme_<name>" section per scheme in the Collector's Snapshot with
// the proof-relevant counters (helping traffic, allocation and free
// step bounds), then the attached scheme-level gauges.  Keys are
// lower-cased with spaces collapsed, matching Redis's convention.
func (c *Collector) WriteInfo(w io.Writer, extra ...InfoSection) error {
	for _, s := range extra {
		if err := writeInfoSection(w, s); err != nil {
			return err
		}
	}
	snap := c.Snapshot()
	for _, name := range snap.SchemeNames() {
		st := snap.Schemes[name]
		s := InfoSection{
			Name: "scheme_" + infoKey(name),
			Fields: []InfoField{
				Field("derefs", st.DeRefs),
				Field("deref_steps", st.DeRefSteps),
				Field("deref_max_steps", st.DeRefMaxSteps),
				Field("helps_given", st.HelpsGiven),
				Field("helps_received", st.HelpsReceived),
				Field("help_scans", st.HelpScans),
				Field("ann_scan_violations", st.AnnScanViolations),
				Field("allocs", st.Allocs),
				Field("alloc_steps", st.AllocSteps),
				Field("alloc_max_steps", st.AllocMaxSteps),
				Field("alloc_helped", st.AllocHelped),
				Field("alloc_local", st.AllocLocal),
				Field("frees", st.Frees),
				Field("free_steps", st.FreeSteps),
				Field("free_max_steps", st.FreeMaxSteps),
				Field("free_local", st.FreeLocal),
				Field("cas_failures", st.CASFailures),
			},
		}
		if err := writeInfoSection(w, s); err != nil {
			return err
		}
	}
	if len(snap.Gauges) > 0 {
		s := InfoSection{Name: "gauges"}
		for _, g := range snap.Gauges {
			s.Fields = append(s.Fields, Field(infoKey(g.Name)+"_"+infoKey(g.Scheme), g.Value))
		}
		if err := writeInfoSection(w, s); err != nil {
			return err
		}
	}
	return nil
}

func writeInfoSection(w io.Writer, s InfoSection) error {
	if _, err := fmt.Fprintf(w, "# %s\r\n", s.Name); err != nil {
		return err
	}
	for _, f := range s.Fields {
		if _, err := fmt.Fprintf(w, "%s:%s\r\n", infoKey(f.Key), f.Value); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\r\n")
	return err
}

// infoKey normalizes a label into an INFO key: lower-case, spaces and
// other separators collapsed to underscores.
func infoKey(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
