package experiments

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the short handle cmd/reproduce's -only flag selects.
	ID string
	// Title names the paper artifact.
	Title string
	// Run renders the artifact against the shared environment.
	Run func(e *Env) (string, error)
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"fig2-3", "Figures 2-3: discovery request/response dissection", func(e *Env) (string, error) {
		r, err := Figures23(e)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"table1", "Table 1: scan campaign overview", wrap(func(e *Env) renderer { return Table1(e) })},
	{"table2", "Table 2: router datasets", wrap(func(e *Env) renderer { return Table2(e) })},
	{"fig4", "Figure 4: IPs per engine ID", wrap(func(e *Env) renderer { return Figure4(e) })},
	{"fig5", "Figure 5: engine ID formats", wrap(func(e *Env) renderer { return Figure5(e) })},
	{"fig6", "Figure 6: Hamming weight", wrap(func(e *Env) renderer { return Figure6(e) })},
	{"fig7", "Figure 7: top-3 engine IDs", wrap(func(e *Env) renderer { return Figure7(e) })},
	{"fig8", "Figure 8: reboot delta between scans", wrap(func(e *Env) renderer { return Figure8(e) })},
	{"fig9", "Figure 9: alias set sizes (Section 5.1)", wrap(func(e *Env) renderer { return Figure9(e) })},
	{"sec52", "Section 5.2: Router Names comparison", wrap(func(e *Env) renderer { return Section52(e) })},
	{"sec53", "Section 5.3: MIDAR / Speedtrap comparison", wrap(func(e *Env) renderer { return Section53(e) })},
	{"fig10", "Figure 10: SNMPv3 coverage per AS", wrap(func(e *Env) renderer { return Figure10(e) })},
	{"sec54", "Section 5.4: combined coverage", wrap(func(e *Env) renderer { return Section54(e) })},
	{"fig11", "Figure 11: vendor popularity", wrap(func(e *Env) renderer { return Figure11(e) })},
	{"fig12", "Figure 12: router vendor popularity", wrap(func(e *Env) renderer { return Figure12(e) })},
	{"sec621", "Section 6.2.1: lab validation", func(e *Env) (string, error) {
		r, err := Section621()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"sec622", "Section 6.2.2: operator survey", wrap(func(e *Env) renderer { return Section622(e) })},
	{"sec623", "Section 6.2.3: Nmap comparison", wrap(func(e *Env) renderer { return Section623(e) })},
	{"fig13", "Figure 13: time since last reboot", wrap(func(e *Env) renderer { return Figure13(e) })},
	{"fig14", "Figure 14: vendors per AS", wrap(func(e *Env) renderer { return Figure14(e) })},
	{"fig15", "Figure 15: regional vendor popularity", wrap(func(e *Env) renderer { return Figure15(e) })},
	{"fig16", "Figure 16: top-10 network vendor popularity", wrap(func(e *Env) renderer { return Figure16(e) })},
	{"fig17", "Figure 17: vendor dominance", wrap(func(e *Env) renderer { return Figure17(e) })},
	{"fig18", "Figure 18: regional vendor dominance", wrap(func(e *Env) renderer { return Figure18(e) })},
	{"sec73", "Section 7.3: sibling detection comparison", wrap(func(e *Env) renderer { return Section73(e) })},
	{"sec8", "Section 8: vulnerabilities (amplification, brute force)", func(e *Env) (string, error) {
		r, err := Section8(e)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"table3", "Table 3 (Appendix A): alias resolution variants", wrap(func(e *Env) renderer { return Table3(e) })},
	{"fig19", "Figure 19 (Appendix B): tuple uniqueness", wrap(func(e *Env) renderer { return Figure19(e) })},
	{"fig20", "Figure 20 (Appendix C): routers per AS per region", wrap(func(e *Env) renderer { return Figure20(e) })},
	{"nat", "Extension: NAT / load-balancer inference (Section 9)", wrap(func(e *Env) renderer { return Section9(e) })},
	{"monitor", "Extension: longitudinal reboot monitoring (Section 6.3)", func(e *Env) (string, error) {
		r, err := Monitor(e)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
	{"hostile", "Extension: hostile network vs the Section 4.4 filter", func(e *Env) (string, error) {
		r, err := Hostile(e)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}},
}

type renderer interface{ Render() string }

func wrap(f func(e *Env) renderer) func(e *Env) (string, error) {
	return func(e *Env) (string, error) {
		return f(e).Render(), nil
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, ex := range All {
		if ex.ID == id {
			return ex, true
		}
	}
	return Experiment{}, false
}
