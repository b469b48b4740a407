package main

import "sort"

// summary is the sample count, quartiles and raw samples of one
// metric. Quartiles follow Python's statistics.quantiles(v, n=4), the
// rule the acceptance driver applies, so a spread printed here is the
// spread it will compute.
type summary struct {
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Unit: unit, N: len(samples), Q1: q1, Median: med, Q3: q3, Samples: samples}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles returns the three cut points of v (not modified). Fewer
// than two samples have no spread: all three are the sample itself.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
