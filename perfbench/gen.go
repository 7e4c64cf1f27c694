package main

import (
	"math/rand"
	"strings"
)

// vocab is a seeded vocabulary whose words are drawn with Zipf
// frequencies, so a few terms are very common and most are rare — the
// skew real text has, which is what posting-list sizes depend on.
type vocab struct {
	words []string
	zipf  *rand.Zipf
	rng   *rand.Rand
}

func newVocab(rng *rand.Rand, n int) *vocab {
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	for len(words) < n {
		w := randWord(rng, 3+rng.Intn(7))
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return &vocab{words: words, zipf: rand.NewZipf(rng, 1.2, 1, uint64(n-1)), rng: rng}
}

// randWord returns n lowercase letters; "zq" never starts one, which
// keeps the search workload's fresh tokens out of the vocabulary.
func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	if b[0] == 'z' && n > 1 && b[1] == 'q' {
		b[1] = 'u'
	}
	return string(b)
}

func (v *vocab) word() string { return v.words[v.zipf.Uint64()] }

// text returns about n runes of words separated by spaces, with an
// occasional sentence break. Only ASCII letters, spaces and ". " appear,
// so no generated rune can be mistaken for the server's mask rune.
func (v *vocab) text(n int) string {
	var sb strings.Builder
	for sb.Len() < n {
		if sb.Len() > 0 {
			if v.rng.Intn(12) == 0 {
				sb.WriteString(". ")
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString(v.word())
	}
	return sb.String()[:n]
}

// tokenFor returns the fresh search token of edit i: "zq" plus four
// base-26 digits of the seed and five of the edit number, a word no
// generated text holds, of the same length on every seed.
func tokenFor(seed int64, i int) string {
	b := []byte("zq")
	for _, d := range []struct{ v, n uint64 }{{uint64(seed), 4}, {uint64(i), 5}} {
		for k := uint64(0); k < d.n; k++ {
			b = append(b, byte('a'+d.v%26))
			d.v /= 26
		}
	}
	return string(b)
}

// hasWord reports whether text holds term as a whole word, with words
// split at anything that is not a letter or digit — the benchmark's own
// reading of the generated text, independent of the program's tokenizer.
func hasWord(text, term string) bool {
	for i := 0; ; {
		j := strings.Index(text[i:], term)
		if j < 0 {
			return false
		}
		s, e := i+j, i+j+len(term)
		if (s == 0 || !isWordByte(text[s-1])) && (e == len(text) || !isWordByte(text[e])) {
			return true
		}
		i = s + 1
	}
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b >= 0x80
}
