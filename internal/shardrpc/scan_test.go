package shardrpc

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"onex/internal/query"
)

// FuzzWorkerScan throws arbitrary bodies at the one scan route: the worker
// answers 200 or a typed 4xx — never a panic (which the route's recovery
// would turn into a 500) or any other 5xx — and a 200 holds at most k hits
// (any number for k = 0), each of a distinct group the shard owns, at a
// finite, non-negative distance at or below the cutoff.
func FuzzWorkerScan(f *testing.F) {
	q := `"query":[0.2,0.3,0.1,0.4,0.5,0.3]`
	inf := "9218868437227405312"     // Float64bits(+Inf)
	negInf := "18442240474082181120" // Float64bits(-Inf)
	nan := "9221120237041090561"     // Float64bits(NaN)
	one := "4607182418800017408"     // Float64bits(1)
	for _, body := range []string{
		`{"length":6,` + q + `,"k":3,"cutoffBits":` + inf + `,"workers":2}`,
		`{"length":6,` + q + `,"k":1,"cutoffBits":` + inf + `}`,
		`{"length":6,` + q + `,"k":0,"cutoffBits":` + one + `}`,
		`{"length":6,` + q + `,"k":0,"cutoffBits":` + inf + `}`,
		`{"length":6,` + q + `,"k":-1,"cutoffBits":` + inf + `}`,
		`{"length":6,` + q + `,"k":9223372036854775807,"cutoffBits":` + inf + `,"workers":-7}`,
		`{"length":6,` + q + `,"k":2,"cutoffBits":` + nan + `}`,
		`{"length":6,` + q + `,"k":2,"cutoffBits":` + negInf + `}`,
		`{"length":6,"query":[],"k":2,"cutoffBits":` + inf + `}`,
		`{"length":6,"query":[1e999],"k":2}`,
		`{"length":7,` + q + `,"k":2,"cutoffBits":` + inf + `}`,
		`{"length":6,"query":[0.2,0.3,0.1],"k":2,"cutoffBits":` + inf + `}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}

	h := shippedWorker(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, context.Background(), "scan", body)
		switch {
		case rec.Code == http.StatusOK:
			var resp query.ScanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v", err)
			}
			var req query.ScanRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for a body that does not decode: %q", body)
			}
			if req.K > 0 && len(resp.Hits) > req.K {
				t.Fatalf("%d hits for k=%d", len(resp.Hits), req.K)
			}
			cutoff := math.Float64frombits(req.CutoffBits)
			seen := map[int]bool{}
			for _, h := range resp.Hits {
				if seen[h.GroupID] || h.GroupID%2 != 0 || h.GroupID < 0 || h.GroupID > 8 {
					t.Fatalf("hit %+v names a group twice or one the shard does not own", h)
				}
				seen[h.GroupID] = true
				if math.IsNaN(h.Dist) || math.IsInf(h.Dist, 0) || h.Dist < 0 || h.Dist > cutoff {
					t.Fatalf("hit %+v is not a finite distance at or below the cutoff %v", h, cutoff)
				}
			}
		case rec.Code >= 400 && rec.Code < 500:
			if errCode(t, rec.Body.Bytes()) == "" {
				t.Fatalf("%d without a typed envelope: %s", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
