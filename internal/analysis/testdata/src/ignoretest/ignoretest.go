// Package ignoretest exercises the //eagervet:ignore directive machinery
// itself: a directive silences exactly the diagnostics on its line (or the
// next line for standalone directives), a directive without a reason is
// itself a diagnostic, unknown analyzer names are rejected, and a directive
// that suppresses nothing is flagged.
package ignoretest

const tagBase = 1 << 20

func send(dest, tag int) {}

// exactlyOne shows that one directive suppresses one line only: the first
// violation is silenced, the identical violation on the next line still
// fires.
func exactlyOne() {
	send(1, 111) //eagervet:ignore tagcheck -- fixture: first of two identical violations; only this line is covered.
	send(1, 111) // want "raw literal tag passed as .tag. to send"
}

// standaloneCoversNext shows a directive on its own line covering the
// following line.
func standaloneCoversNext() {
	//eagervet:ignore tagcheck -- fixture: standalone directive covers the next line.
	send(2, 222)
	send(2, 222) // want "raw literal tag passed as .tag. to send"
}

// missingReason: a directive without "-- reason" is itself flagged and
// suppresses nothing.
func missingReason() {
	/* want "requires a reason" */ //eagervet:ignore tagcheck
	send(3, 333)                   // want "raw literal tag passed as .tag. to send"
}

// unknownAnalyzer: naming a non-existent analyzer is flagged and suppresses
// nothing.
func unknownAnalyzer() {
	/* want "unknown analyzer .nosuchcheck." */ //eagervet:ignore nosuchcheck
	send(4, 444)                                // want "raw literal tag passed as .tag. to send"
}

// noAnalyzer: a bare directive is flagged.
func noAnalyzer() {
	send(5, tagBase) /* want "names no analyzer" */ //eagervet:ignore
}

// deadDirective: a directive over a line the analyzer does not flag is itself
// flagged; the identical directive over a flagged line is not.
func deadDirective() {
	send(6, tagBase) /* want "suppresses no diagnostic" */ //eagervet:ignore tagcheck -- fixture: the tag is named, so this covers nothing.
	send(6, 666)     //eagervet:ignore tagcheck -- fixture: covers the raw literal tag on this line.
}
