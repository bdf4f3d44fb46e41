package scenario

import (
	"strings"
	"testing"

	"iotmap/internal/outage"
	"iotmap/internal/world"
)

// TestCompileRejects: every malformed step is refused at Compile, and
// each step error names the step it came from.
func TestCompileRejects(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	hours := len(w.Days) * 24
	cases := []struct {
		name string
		w    *world.World
		// before lists valid steps the suite runs ahead of step.
		before []Step
		step   Step
		want   string
	}{
		{
			name: "empty step",
			step: Step{Name: "nothing"},
			want: "is empty",
		},
		{
			name: "unknown provider",
			step: Step{Name: "ghost", Hijack: &Hijack{Provider: "no-such-provider"}},
			want: `unknown provider "no-such-provider"`,
		},
		{
			name: "hijack FromHour before the study",
			step: Step{Name: "early", Hijack: &Hijack{Provider: "amazon", FromHour: -1}},
			want: "hijack FromHour -1 outside study",
		},
		{
			name: "hijack FromHour after the study",
			step: Step{Name: "late", Hijack: &Hijack{Provider: "amazon", FromHour: hours}},
			want: "outside study",
		},
		{
			name: "empty hijack window",
			step: Step{Name: "blink", Hijack: &Hijack{Provider: "amazon", FromHour: 10, ToHour: 10}},
			want: "hijack window [10,10) is empty",
		},
		{
			name: "outage day outside the study",
			step: Step{Name: "dark", Outage: &RegionalOutage{Outage: outage.Scenario{Day: len(w.Days)}}},
			want: "outage day",
		},
		{
			name: "feed-death hour outside the study",
			step: Step{Name: "cut", Outage: &RegionalOutage{KillFeedVantage: "eu", KillAtHour: hours}},
			want: "feed death hour",
		},
		{
			name: "cutover hour outside the study",
			step: Step{Name: "move", Migration: &Migration{Provider: "bosch", ToASN: MigrationTargetASN, AtHour: -5}},
			want: "cutover hour -5 outside study",
		},
		{
			name:   "two migrations of one provider",
			before: []Step{{Name: "first", Migration: &Migration{Provider: "bosch", ToASN: MigrationTargetASN, AtHour: 10}}},
			step:   Step{Name: "second", Migration: &Migration{Provider: "bosch", ToASN: MigrationTargetASN + 1, AtHour: 40}},
			want:   `migrates provider "bosch" again (step "first" already does)`,
		},
		{
			name: "no study days",
			w:    &world.World{},
			step: Step{Name: "any", Migration: &Migration{Provider: "bosch"}},
			want: "world has no study days",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cw := w
			if tc.w != nil {
				cw = tc.w
			}
			suite := Suite{Name: "bad", Seed: 1, Steps: append(append([]Step(nil), tc.before...), tc.step)}
			out, err := suite.Compile(cw)
			if err == nil {
				t.Fatalf("Compile accepted the suite (%d scenarios)", len(out))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if tc.w == nil && !strings.Contains(err.Error(), `step "`+tc.step.Name+`"`) {
				t.Errorf("error %q does not name step %q", err, tc.step.Name)
			}
		})
	}
}
