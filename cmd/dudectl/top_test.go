package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"dudetm/internal/server"
)

// scrapeOf is a scrape exposing every required series with value v.
func scrapeOf(v float64) map[string]float64 {
	m := make(map[string]float64, len(server.RequiredSeries))
	for _, s := range server.RequiredSeries {
		m[s] = v
	}
	return m
}

func set(m map[string]float64, series string, v float64) map[string]float64 {
	m[series] = v
	return m
}

func del(m map[string]float64, series string) map[string]float64 {
	delete(m, series)
	return m
}

func TestCheckScrapes(t *testing.T) {
	const tick = 100 * time.Millisecond
	cases := []struct {
		name          string
		first, second map[string]float64
		elapsed       time.Duration
		want          string // prefix of the first problem; "" = healthy
	}{
		{"healthy", scrapeOf(1), scrapeOf(5), tick, ""},
		{"missing series", del(scrapeOf(1), "dudesrv_failed_acks_total"), scrapeOf(1), tick,
			"missing series dudesrv_failed_acks_total"},
		{"NaN", set(scrapeOf(1), "dudetm_durable_tid", math.NaN()), scrapeOf(1), tick, "dudetm_durable_tid = NaN"},
		{"+Inf", set(scrapeOf(1), "dudetm_durable_tid", math.Inf(1)), scrapeOf(1), tick, "dudetm_durable_tid = +Inf"},
		{"-Inf", set(scrapeOf(1), "dudetm_durable_tid", math.Inf(-1)), scrapeOf(1), tick, "dudetm_durable_tid = -Inf"},
		// A restart between the scrapes resets every counter: the rates
		// clamp to 0 instead of going negative.
		{"counter reset", scrapeOf(1000), scrapeOf(0), tick, ""},
		// Scrapes no time apart, or a clock step backwards, must not
		// divide into an Inf or NaN rate.
		{"zero elapsed", scrapeOf(1), scrapeOf(5), 0, ""},
		{"negative elapsed", scrapeOf(1), scrapeOf(5), -time.Second, ""},
	}
	for _, c := range cases {
		p := checkScrapes(c.first, c.second, c.elapsed)
		switch {
		case c.want == "" && len(p) != 0:
			t.Errorf("%s: problems %q, want none", c.name, p)
		case c.want != "" && (len(p) == 0 || !strings.HasPrefix(p[0], c.want)):
			t.Errorf("%s: problems %q, want first to start with %q", c.name, p, c.want)
		}
	}
}
