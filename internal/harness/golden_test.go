package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// experimentSimGolden pins the SHA-256 of every experiment's sim sections
// (rendered tables plus every cell's deterministic section, as built by
// simSections) at the scales of experimentGoldenScales. A change to any
// simulated number, table layout or cell label changes a hash; re-pin only
// when the change is intended and say which experiment moved and why.
var experimentSimGolden = map[string]string{
	"adaptive": "1bf1a05c8a46a1f63d4e193edc6174f1b733f32f4aece79f5bc03582b267e07e",
	"fig3":     "37ec54207474c3d7feef4a32970cdb4d85444d7c5d9b9c78469be3d4ab5e399e",
	"fig4":     "ba7ac31852662454d1764e7cccfb2c9b2757af1668491c1646328f0af123a978",
	"fig5":     "bcb80c87f19abbf522eecc85fefcbfa564237991fe210a1d1a3318c38221b79e",
	"fig6":     "2f4f1f821bdc3a522b4d89e41abc42d57ac1beec741728cf81a21d596322c64a",
	"fig7":     "0df0fb3a00959991f3f245391fd8e1d94fa031d0d8df8d0226d90383bfe85e0f",
	"fig8":     "ab82da64f2f08f1b0c18d8b928a7fce17576dfdefdb0b7a117c47fcaf01e49cb",
	"grid64":   "7f031e422957f55016ecad5839ec0b9c071363f5c5a8d0d0b310957cdbc9569c",
	"hybrid":   "f4950a4f83255c35a2e924392edcb93592d8dc36a1385c1a1df17625c620316b",
	"litmus":   "b87f678f8ef143b7caa77e5bbb75d866343a160c0587f9217587db11fb2e6112",
	"server":   "38bac82944938eb99c4810f3fbe2b5940e719e5f8c02feeefe6dc7cc7d536973",
	"table1":   "ef71f19f935797dd2d7347112fc16286a9fd0cf9bcda4b6b8fd7fc3075de5951",
	"txprof":   "918f6694eee6e7cc991b9ba0000b0ba422ff276d159fd894a7b4bdc4913a6364",
}

// experimentGoldenScales keeps the whole set inside test-suite time.
// Determinism and the pinned hashes hold at any scale, so small is as
// strong as large; unlisted experiments run at 0.03.
var experimentGoldenScales = map[string]float64{
	"fig4": 0.02, "fig6": 0.02, "adaptive": 0.02, "txprof": 0.03,
	"grid64": 0.01, "litmus": 0.02, "server": 0.02,
}

// TestExperimentSimGolden runs every registered experiment at one worker
// and at four. The two runs' sim sections must be byte-identical on every
// platform: cells are isolated machines, so the worker count cannot leak
// into results. On amd64 the sections' hash must also equal the pinned
// one. Other architectures may fuse float multiply-adds, which can move a
// derived float's last bit, so the hash is compared there only.
func TestExperimentSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scale := experimentGoldenScales[name]
			if scale == 0 {
				scale = 0.03
			}
			seq := simSections(t, name, Options{Scale: scale, Parallel: 1})
			if par := simSections(t, name, Options{Scale: scale, Parallel: 4}); par != seq {
				t.Fatalf("%s: sim sections at parallel=4 differ from parallel=1", name)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			sum := sha256.Sum256([]byte(seq))
			if got, want := hex.EncodeToString(sum[:]), experimentSimGolden[name]; got != want {
				t.Errorf("%s: sim sections hash %s, pinned %s", name, got, want)
			}
		})
	}
}
