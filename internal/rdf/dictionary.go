package rdf

// Dictionary maps RDF term strings to dense Value IDs and back. Encoding the
// corpus once lets every downstream stage (condition counting, capture
// groups, extraction) work on fixed-size integers, which is what keeps
// RDFind's data structures compact (§6).
type Dictionary struct {
	byStr map[string]Value
	byID  []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byStr: make(map[string]Value)}
}

// NewDictionarySized returns an empty dictionary pre-sized for about n terms,
// so bulk loaders (the parallel ingest merge) avoid incremental map growth.
func NewDictionarySized(n int) *Dictionary {
	if n < 0 {
		n = 0
	}
	return &Dictionary{
		byStr: make(map[string]Value, n),
		byID:  make([]string, 0, n),
	}
}

// Encode interns s and returns its ID, assigning the next free ID on first
// sight.
func (d *Dictionary) Encode(s string) Value {
	if id, ok := d.byStr[s]; ok {
		return id
	}
	id := Value(len(d.byID))
	d.byStr[s] = id
	d.byID = append(d.byID, s)
	return id
}

// encodeBytes is Encode for a byte slice; it allocates a string only for a
// term it has not seen before.
func (d *Dictionary) encodeBytes(b []byte) Value {
	if id, ok := d.byStr[string(b)]; ok {
		return id
	}
	return d.Encode(string(b))
}

// Lookup returns the ID for s without interning it.
func (d *Dictionary) Lookup(s string) (Value, bool) {
	id, ok := d.byStr[s]
	return id, ok
}

// Decode returns the surface form of id. It returns "?" for IDs the
// dictionary has never issued, including NoValue.
func (d *Dictionary) Decode(id Value) string {
	if int(id) >= len(d.byID) {
		return "?"
	}
	return d.byID[id]
}

// Len returns the number of distinct terms interned so far.
func (d *Dictionary) Len() int { return len(d.byID) }
