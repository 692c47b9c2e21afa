package core

import "encoding/json"

// summaryFields is Summary without its JSON methods, so encoding/json
// renders its tagged fields directly.
type summaryFields Summary

// summaryJSON is the Summary wire shape for the distributed-campaign shard
// stream: the tagged Summary fields plus samplesFolded, carried explicitly
// so the aggregation-stats watermarks survive the hop. Config deliberately
// does not travel: the campaign spec — which both sides already hold —
// identifies the configuration, and Config carries fields (the fleet
// CapacityShare hook in particular) that have no JSON form.
type summaryJSON struct {
	*summaryFields
	SamplesFolded int64 `json:"samples_folded"`
}

// MarshalJSON renders the summary for transport. The output is canonical —
// a pure function of the folded runs and their fold grouping — so two
// summaries built from the same shards in the same order marshal to
// identical bytes (the basis of the sharded == serial merge-equivalence
// guarantee).
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{(*summaryFields)(s), s.samplesFolded})
}

// UnmarshalJSON reconstructs a summary marshaled by MarshalJSON. Config
// comes back zero (the consumer restores it from the campaign spec).
// Merging the result behaves exactly like merging the original summary.
func (s *Summary) UnmarshalJSON(data []byte) error {
	*s = Summary{}
	w := summaryJSON{summaryFields: (*summaryFields)(s)}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.samplesFolded = w.SamplesFolded
	return nil
}
