// Package failpoint is the fault-injection harness: a fixed catalog of
// named sites threaded through the kernel substrates at their natural
// seams (blockdev sector I/O, netstack xmit/poll, slab page
// allocation, the mediated kernel-export entry, and the module
// loader's lifecycle steps), and a per-machine Set of the policies
// armed on them.
//
// Sites are the Site constants, named "<package>.<seam>" (PAPER.md
// describes each seam). Every core.System owns one Set
// (System.Faults), and each site injects through the Set of the
// System it runs in, so a policy armed on one machine never fires on
// another. A site passes a per-call argument (device id, kernel
// function name, module name) that policies can match with Arg.
//
// A site is a single call — faults.InjectArg(BlockdevWriteSector,
// dev) — that does nothing until armed. Disarmed sites cost one atomic
// load and zero allocations, so they are compiled into production
// paths (the 0-alloc warm-crossing and trace-overhead perf gates hold
// with every site in place). Armed sites evaluate a per-site Policy:
// return an injected error, sleep, panic (simulating a module bug that
// oopses — the call gates contain it into a synthetic violation), or
// run an arbitrary test callback; firing is shaped by one-shot,
// every-Nth, probability, and argument-match triggers.
//
// Tests arm their own System's Set with Arm/Disarm. Commands and CI
// arm every System a process boots through the LXFI_FAILPOINTS
// environment variable, in the spec language of ParseSpec, which
// core.NewSystem arms with ArmSpec:
//
//	LXFI_FAILPOINTS="blockdev.write_sector=every(50)->error;kernel.entry[kmalloc]=oneshot->panic"
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site is one fault-injection seam of the fixed catalog.
type Site uint8

// The catalog, in name order. Each comment names the per-call argument
// a policy's Arg matches.
const (
	BlockdevReadSector  Site = iota // dm_read_sectors; arg: device id
	BlockdevWriteSector             // every disk mutation; arg: device id
	KernelEntry                     // a module's call into a kernel export; arg: function name
	LoaderLoad                      // booting a module generation; arg: module name
	LoaderMigrate                   // a reload's capability migration; arg: module name
	LoaderUnload                    // a generation's unload hook; arg: module name
	MemPageAlloc                    // slab allocation
	NetstackPoll                    // a NAPI poll round
	NetstackXmit                    // TX entry, per-packet and batched enqueue
	NetstackXmitBatch               // a batched TX drain
	numSites
)

// String returns the site's "<package>.<seam>" name.
func (s Site) String() string {
	switch s {
	case BlockdevReadSector:
		return "blockdev.read_sector"
	case BlockdevWriteSector:
		return "blockdev.write_sector"
	case KernelEntry:
		return "kernel.entry"
	case LoaderLoad:
		return "loader.load"
	case LoaderMigrate:
		return "loader.migrate"
	case LoaderUnload:
		return "loader.unload"
	case MemPageAlloc:
		return "mem.page_alloc"
	case NetstackPoll:
		return "netstack.poll"
	case NetstackXmit:
		return "netstack.xmit"
	case NetstackXmitBatch:
		return "netstack.xmit_batch"
	}
	return fmt.Sprintf("failpoint.Site(%d)", uint8(s))
}

// Sites returns the catalog, in name order.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// lookup maps a site name to its catalog entry. The error for a name
// outside the catalog lists the valid names: a misspelt site would
// otherwise arm nothing and let a chaos run look clean.
func lookup(name string) (Site, error) {
	names := make([]string, numSites)
	for _, s := range Sites() {
		if s.String() == name {
			return s, nil
		}
		names[s] = s.String()
	}
	return 0, fmt.Errorf("failpoint: unknown site %q (valid: %s)", name, strings.Join(names, ", "))
}

// ErrInjected is wrapped by every error an armed error-policy site
// returns, so callers and tests can errors.Is an injected fault apart
// from a real one.
var ErrInjected = errors.New("failpoint: injected fault")

// PanicValue is what an armed panic-policy site panics with. The call
// gates recover it (like any other panic raised inside a module
// crossing) into a synthetic violation; tests can assert on the Site.
type PanicValue struct {
	Site Site
	Msg  string
}

func (p PanicValue) String() string {
	if p.Msg != "" {
		return fmt.Sprintf("failpoint %s: %s", p.Site, p.Msg)
	}
	return "failpoint " + p.Site.String()
}

// Policy describes what an armed site does and when it fires. Exactly
// one action is used, checked in order: Do, Delay, Panic, error (the
// default — Err, or ErrInjected when Err is nil). All trigger fields
// are optional and combine conjunctively.
type Policy struct {
	// Err, when set, is the error an error-action site returns
	// (wrapped together with ErrInjected). Nil selects ErrInjected.
	Err error
	// Delay sleeps for the duration, then the call proceeds normally.
	Delay time.Duration
	// Panic panics with a PanicValue. Meant for module-mediated seams
	// (kernel.entry), where the call gates contain the panic; at a
	// kernel-context seam it is a kernel panic, exactly as in the real
	// thing.
	Panic bool
	// Msg annotates the injected error or panic.
	Msg string
	// Do runs an arbitrary callback instead of any built-in action
	// (tests only — not reachable from the spec language). The arg is
	// the Inject call's site argument.
	Do func(arg string) error

	// OneShot fires the site once, then never again until re-armed.
	OneShot bool
	// EveryNth fires on every Nth evaluation (1 or 0 = every time).
	EveryNth int64
	// Prob fires with the given probability in (0, 1); 0 disables the
	// probability trigger.
	Prob float64
	// Arg, when non-empty, fires only when the InjectArg call's
	// argument matches exactly.
	Arg string
}

// armedPolicy is a Policy plus its runtime trigger counters; a fresh
// one is built per Arm so re-arming resets one-shot and every-Nth
// state.
type armedPolicy struct {
	p     Policy
	err   error // precomputed wrapped error for the error action
	n     atomic.Int64
	fired atomic.Bool
}

// Set is one machine's armed policies, one slot per site. The zero
// value has nothing armed. Arm and Disarm may race Inject: each slot
// is swapped atomically.
type Set struct {
	// armed counts the non-nil slots; the disarmed fast path is this
	// single load.
	armed atomic.Int64
	pol   [numSites]atomic.Pointer[armedPolicy]
}

// Arm installs a policy on a site, replacing any previous policy and
// resetting trigger state. A site outside the catalog is an error.
func (s *Set) Arm(site Site, p Policy) error {
	if site >= numSites {
		_, err := lookup(site.String())
		return err
	}
	s.arm(site, p)
	return nil
}

func (s *Set) arm(site Site, p Policy) {
	ap := &armedPolicy{p: p}
	if !p.Panic && p.Do == nil && p.Delay == 0 {
		e := p.Err
		if e == nil {
			e = ErrInjected
		}
		if p.Msg != "" {
			ap.err = fmt.Errorf("%w at %s: %s", e, site, p.Msg)
		} else {
			ap.err = fmt.Errorf("%w at %s", e, site)
		}
		if p.Err != nil {
			// Keep both ErrInjected and the caller's error in the chain.
			ap.err = fmt.Errorf("%w: %w", ErrInjected, ap.err)
		}
	}
	if s.pol[site].Swap(ap) == nil {
		s.armed.Add(1)
	}
}

// Disarm removes a site's policy.
func (s *Set) Disarm(site Site) {
	if s.pol[site].Swap(nil) != nil {
		s.armed.Add(-1)
	}
}

// DisarmAll removes every armed policy (test teardown).
func (s *Set) DisarmAll() {
	for i := range s.pol {
		s.Disarm(Site(i))
	}
}

// Armed reports whether any site is currently armed.
func (s *Set) Armed() bool { return s.armed.Load() != 0 }

// Inject is the fault site hook for sites without a per-call argument.
// Disarmed — the overwhelmingly common case — it is a single atomic
// load.
func (s *Set) Inject(site Site) error { return s.InjectArg(site, "") }

// InjectArg is Inject for sites that pass a per-call argument (device
// id, kernel function name, module name) for Policy.Arg matching.
func (s *Set) InjectArg(site Site, arg string) error {
	if s.armed.Load() == 0 {
		return nil
	}
	return s.injectSlow(site, arg)
}

func (s *Set) injectSlow(site Site, arg string) error {
	ap := s.pol[site].Load()
	if ap == nil {
		return nil
	}
	if ap.p.Arg != "" && ap.p.Arg != arg {
		return nil
	}
	if ap.p.EveryNth > 1 && ap.n.Add(1)%ap.p.EveryNth != 0 {
		return nil
	}
	if ap.p.Prob > 0 && ap.p.Prob < 1 && rand.Float64() >= ap.p.Prob {
		return nil
	}
	if ap.p.OneShot && ap.fired.Swap(true) {
		return nil
	}
	switch {
	case ap.p.Do != nil:
		return ap.p.Do(arg)
	case ap.p.Delay > 0:
		time.Sleep(ap.p.Delay)
		return nil
	case ap.p.Panic:
		panic(PanicValue{Site: site, Msg: ap.p.Msg})
	default:
		return ap.err
	}
}

// Spec is a parsed spec string: the policies it arms, in order. One
// Spec can be armed on any number of Sets.
type Spec struct {
	arms []specArm
}

type specArm struct {
	site Site
	p    Policy
}

// ParseSpec parses a spec string:
//
//	spec    := entry { ";" entry }
//	entry   := site [ "[" arg "]" ] "=" [ triggers "->" ] action
//	triggers:= trigger { "," trigger }
//	trigger := "oneshot" | "every(N)" | "prob(P)"
//	action  := "error" | "error(msg)" | "delay(duration)"
//	         | "panic" | "panic(msg)"
//
// e.g. "blockdev.write_sector=every(50)->error;kernel.entry[kmalloc]=oneshot->panic".
// A site name outside the catalog is an error. This is the language
// of the LXFI_FAILPOINTS environment variable.
func ParseSpec(spec string) (Spec, error) {
	var sp Spec
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, term, ok := strings.Cut(entry, "=")
		if !ok {
			return Spec{}, fmt.Errorf("failpoint: spec entry %q has no '='", entry)
		}
		name = strings.TrimSpace(name)
		p := Policy{}
		if i := strings.IndexByte(name, '['); i >= 0 {
			if !strings.HasSuffix(name, "]") {
				return Spec{}, fmt.Errorf("failpoint: bad site arg in %q", entry)
			}
			p.Arg = name[i+1 : len(name)-1]
			name = name[:i]
		}
		site, err := lookup(name)
		if err != nil {
			return Spec{}, err
		}
		action := strings.TrimSpace(term)
		if trig, act, ok := strings.Cut(term, "->"); ok {
			action = strings.TrimSpace(act)
			for _, tr := range strings.Split(trig, ",") {
				if err := parseTrigger(&p, strings.TrimSpace(tr)); err != nil {
					return Spec{}, fmt.Errorf("failpoint: entry %q: %w", entry, err)
				}
			}
		}
		if err := parseAction(&p, action); err != nil {
			return Spec{}, fmt.Errorf("failpoint: entry %q: %w", entry, err)
		}
		sp.arms = append(sp.arms, specArm{site, p})
	}
	return sp, nil
}

// ArmSpec arms every policy of a parsed spec.
func (s *Set) ArmSpec(sp Spec) {
	for _, a := range sp.arms {
		s.arm(a.site, a.p)
	}
}

// call splits "kind(payload)" forms; ok is false for a bare word.
func call(s, kind string) (payload string, ok bool) {
	if strings.HasPrefix(s, kind+"(") && strings.HasSuffix(s, ")") {
		return s[len(kind)+1 : len(s)-1], true
	}
	return "", false
}

func parseTrigger(p *Policy, tr string) error {
	switch {
	case tr == "oneshot":
		p.OneShot = true
	case strings.HasPrefix(tr, "every"):
		n, ok := call(tr, "every")
		if !ok {
			return fmt.Errorf("bad trigger %q", tr)
		}
		v, err := strconv.ParseInt(n, 10, 64)
		if err != nil || v < 1 {
			return fmt.Errorf("bad every(N) in %q", tr)
		}
		p.EveryNth = v
	case strings.HasPrefix(tr, "prob"):
		n, ok := call(tr, "prob")
		if !ok {
			return fmt.Errorf("bad trigger %q", tr)
		}
		v, err := strconv.ParseFloat(n, 64)
		if err != nil || v <= 0 || v > 1 {
			return fmt.Errorf("bad prob(P) in %q", tr)
		}
		p.Prob = v
	default:
		return fmt.Errorf("unknown trigger %q", tr)
	}
	return nil
}

func parseAction(p *Policy, act string) error {
	switch {
	case act == "error":
	case act == "panic":
		p.Panic = true
	case strings.HasPrefix(act, "error"):
		msg, ok := call(act, "error")
		if !ok {
			return fmt.Errorf("unknown action %q", act)
		}
		p.Msg = msg
	case strings.HasPrefix(act, "panic"):
		msg, ok := call(act, "panic")
		if !ok {
			return fmt.Errorf("unknown action %q", act)
		}
		p.Panic, p.Msg = true, msg
	case strings.HasPrefix(act, "delay"):
		dur, ok := call(act, "delay")
		if !ok {
			return fmt.Errorf("unknown action %q", act)
		}
		d, err := time.ParseDuration(dur)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad delay(duration) in %q", act)
		}
		p.Delay = d
	default:
		return fmt.Errorf("unknown action %q", act)
	}
	return nil
}
