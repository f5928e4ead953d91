//go:build !race

// The full sweep takes seconds, and minutes under the race detector's
// instrumentation, so it only runs in non-race builds (CI runs both).

package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"multinet/internal/core"
	"multinet/internal/experiments/engine"
)

// fullGolden pins the SHA-256 of every experiment's output at the
// default options and seed: the trial counts the report runs, where
// TestQuickOutputGolden runs one. A trial index or an
// engine.Cell.Unpaired placed on the wrong coordinate moves only the
// cells of trials 1 and up, so only this table sees it. A mismatch means
// experiment calibration changed: recapture with `go run ./cmd/report
// -json` only on purpose, and say so in the commit.
var fullGolden = map[string]string{
	"table1":              "da7ec171726744f9d7456421d6745e4938c3192403275c8ed89cd4aeb4699f62",
	"figure3":             "22446a640e675c83d4c9eec1f5e4ff2607bab2b4e029ccc1e193a268d753b0da",
	"figure4":             "1c11d072532616180c3c921182f7852015e7bd4cd41f23c2221669b045535489",
	"table2":              "04440cf4b58a539247910cd0ae4189985932c0941133169b5f5868839f9d7f1d",
	"figure6":             "128e333226a2b37844c4ca42c6b174e882c04ef48bc8c576bb0fd807ab91c326",
	"figure7":             "3314b3cb19a6134b2d7897dcb9e233318e273b888da66c487dfef1017abf552c",
	"figure8":             "5b762654d7d5dc4022838be672568aefcac32a50b9b2ef9bf70ecdf1664c6242",
	"figure9":             "11320924064f837b8d914e064a41c7e913600c716039b8642711be8c503ac418",
	"figure10":            "4fbbbaecb892aa3bfcc71bdb4a7b6f61b850de81f490b6514156c5076b168cfd",
	"figure11":            "14a4403193b576eb855d6df972cb08c634dfde713e6e6b980e61400c4f4dc07f",
	"figure12":            "927b3f078251c5da1d1272052ab2447f75137217a2c189268212fa74b603ea51",
	"coupling":            "9e79bcc7c6e02819dc20677c9995108f19fd4fc1fe52ff1fcfd8e89e87f5902c",
	"figure15":            "f34518970449a0d664030f68f52ee40bb70b1c9f208754ee0db781b3d662ef42",
	"figure16":            "b56630d3237317f0798c697f6a2dd0944842a57e75840fb32742d9c7c7f64cdf",
	"energy-backup":       "05196a2ce6b95ac196085390b950ea426c349abe50d5dee03c233265f96646bf",
	"figure17":            "99bab977b60daa79a0176a1a294e3024b2f70f2e48ea0a248df2f0f6020b0f0d",
	"figure18":            "8af855d73dd470b0f50843520db6cdca6c1b1643959fc1ba572bdf4e590dae34",
	"figure19":            "14ec4b68c2d26f7f42042bf7ae0442422b6bda44fa8b388ff8ac228e5f2a8d97",
	"figure20":            "e4e09ba0eb6ad2d5103f80566dbb171e07242bd11e8922cd2702a414d714cd45",
	"figure21":            "15da96985bb5fb59622367830c247065ec056a59ef1fc73928b221e7bf03baab",
	"ablation-join":       "29f9933781ecf87aba789661a19b537d9ac312e2d9bc3359490e541259951202",
	"ablation-scheduler":  "a8a03ce0b85b2a1b69693ce52d32b91662f4ad5f6ce85902ad94ba11f0606e83",
	"ablation-tail":       "e1addebdf5efc48ef158d2733689a9fd7c6beef2b12038c847a1bdd2948e6c95",
	"ablation-selector":   "d6a4791b9689a07bd48579066e42b28677bb9dc94377ac5fd10db92ad0e26cd4",
	"scenario-dual-lte":   "1c60b58050c7b40a9ad1e5c5db09a381809e4b4fedd4aca1635bb0983cce27b7",
	"scenario-dual-wlan":  "fab1b07bb2786f411f24da9c67aba84283e4ff644ae58427426b46e60a66a271",
	"scenario-wifi-2lte":  "94d963439a6609b376ce4caeda5127098dd115949dbc02218d0a9421600e33b2",
	"scenario-schedulers": "55c2aca5dba0c5d7db5f610cbfa22a405deffbdddc7812d15511b34f58cafc44",
	"scenario-faults":     "516a09839dd3aeb791eb245d9bc4f32c2d9e8a792cddbc9df8bf48e1cadc0183",
}

func TestFullOutputGolden(t *testing.T) {
	all := engine.All()
	if len(all) != len(fullGolden) {
		t.Fatalf("registry holds %d experiments, golden table %d", len(all), len(fullGolden))
	}
	o := Options{Seed: engine.DefaultSeed}
	// As in TestQuickOutputGolden: a full pass that audits fewer worlds
	// than it did skipped a Close.
	const fullWorlds = 2265
	audited, ran := core.AuditedWorlds(), 0
	for _, e := range all {
		t.Run(e.Meta.Name, func(t *testing.T) {
			ran++
			want, ok := fullGolden[e.Meta.Name]
			if !ok {
				t.Fatalf("no golden hash for %q — add one (see fullGolden doc)", e.Meta.Name)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(e.Run(o).String())))
			if got != want {
				t.Errorf("full output changed: sha256 %s, golden %s", got, want)
			}
		})
	}
	if n := core.AuditedWorlds() - audited; ran == len(all) && n != fullWorlds {
		t.Errorf("the full pass audited %d worlds, want %d", n, fullWorlds)
	}
}
