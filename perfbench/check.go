package main

import (
	"fmt"

	"tendax/internal/server"
	"tendax/internal/util"
)

// maskedView is what a restricted reader's replica must hold: the
// committed text with server.MaskRune at every character the reader may
// not read (mask false) that reached it by push — every instance not in
// before, the set that existed when the deny rule was installed and that
// the reader had already read in the clear.
func maskedView(text string, ids []util.ID, mask []bool, before map[util.ID]bool) string {
	runes := []rune(text)
	for i := range runes {
		if i < len(ids) && mask != nil && !mask[i] && !before[ids[i]] {
			runes[i] = server.MaskRune
		}
	}
	return string(runes)
}

// checkReplica compares a replica with the text it must hold and
// describes the first difference.
func checkReplica(who, got, want string) []string {
	if got == want {
		return nil
	}
	g, w := []rune(got), []rune(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return []string{fmt.Sprintf("%s's replica differs from the server at rune %d (%d vs %d runes): %q vs %q",
		who, i, len(g), len(w), excerpt(g, i), excerpt(w, i))}
}

func excerpt(r []rune, i int) string {
	lo, hi := i-8, i+8
	if lo < 0 {
		lo = 0
	}
	if hi > len(r) {
		hi = len(r)
	}
	if lo > hi {
		lo = hi
	}
	return string(r[lo:hi])
}
