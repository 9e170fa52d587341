// Command faweave is the source-code transformation tool (the paper's
// Analyzer + Code Weaver, §5.1): it inserts the failatomic instrumentation
// prologue into every method of a package, strips it again, inventories
// methods with their inferred exception kinds, and can emit the method
// registry as generated Go source.
//
// Usage:
//
//	faweave -dir ./mypkg                # weave in place
//	faweave -dir ./mypkg -strip        # remove instrumentation
//	faweave -dir ./mypkg -dry-run      # show what would change
//	faweave -dir ./mypkg -analyze      # print the method inventory
//	faweave -dir ./mypkg -check        # list unwoven methods; fail if any
//	faweave -dir ./mypkg -suggest-exception-free  # and why the rest are not
//	faweave -dir ./mypkg -registry out.go -registry-func RegisterMyPkg
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"failatomic/internal/weave"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faweave:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faweave", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "", "package directory to transform (required)")
		strip    = fs.Bool("strip", false, "remove instrumentation instead of adding it")
		dryRun   = fs.Bool("dry-run", false, "report changes without writing files")
		analyze  = fs.Bool("analyze", false, "print the Analyzer's method inventory and exit")
		suggest  = fs.Bool("suggest-exception-free", false, "print provably exception-free methods and exit")
		check    = fs.Bool("check", false, "verify the package is fully woven; exit nonzero listing unwoven methods")
		facade   = fs.String("facade", "failatomic", "import path of the instrumentation runtime")
		registry = fs.String("registry", "", "write the generated method registry to this file")
		regFunc  = fs.String("registry-func", "Register", "name of the generated registry function")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	if *check {
		missing, err := weave.CheckDir(*dir)
		if err != nil {
			return err
		}
		if len(missing) == 0 {
			fmt.Println("fully woven")
			return nil
		}
		for _, name := range missing {
			fmt.Printf("unwoven: %s\n", name)
		}
		return fmt.Errorf("%d method(s) lack instrumentation", len(missing))
	}

	if *suggest {
		report, err := weave.SuggestExceptionFree(*dir)
		if err != nil {
			return err
		}
		fmt.Printf("provably exception-free (%d):\n", len(report.Safe))
		for _, name := range report.Safe {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("\nsafe to pass as -exception-free to fareport / DetectOptions.ExceptionFree")
		disqualified := make([]string, 0, len(report.Reasons))
		for name := range report.Reasons {
			disqualified = append(disqualified, name)
		}
		sort.Strings(disqualified)
		fmt.Printf("\ndisqualified (%d):\n", len(disqualified))
		for _, name := range disqualified {
			fmt.Printf("  %s: %s\n", name, strings.Join(report.Reasons[name], "; "))
		}
		return nil
	}

	if *analyze || *registry != "" {
		inv, err := weave.AnalyzeDir(*dir)
		if err != nil {
			return err
		}
		if *analyze {
			printInventory(inv)
		}
		if *registry != "" {
			src := inv.GenerateRegistry(inv.Package, *regFunc, "fault")
			if err := os.WriteFile(*registry, src, 0o644); err != nil {
				return err
			}
			fmt.Printf("registry written to %s (%d methods)\n", *registry, len(inv.Methods))
		}
		return nil
	}

	results, err := weave.InstrumentDir(*dir, weave.Options{
		FacadeImport: *facade,
		Strip:        *strip,
	}, *dryRun)
	if err != nil {
		return err
	}
	changedFiles := 0
	for _, res := range results {
		if !res.Changed {
			continue
		}
		changedFiles++
		if *dryRun {
			fmt.Printf("would rewrite %s\n", res.Path)
		} else {
			fmt.Printf("rewrote %s\n", res.Path)
		}
	}
	verb := "woven"
	if *strip {
		verb = "stripped"
	}
	fmt.Printf("%d file(s) %s\n", changedFiles, verb)
	return nil
}

func printInventory(inv *weave.Inventory) {
	fmt.Printf("package %s: %d methods\n", inv.Package, len(inv.Methods))
	for _, name := range inv.Names() {
		facts := inv.Methods[name]
		tag := "method"
		if facts.Ctor {
			tag = "ctor"
		}
		woven := ""
		if facts.Woven {
			woven = " [woven]"
		}
		fmt.Printf("  %-40s %-6s throws=%v%s\n", name, tag, facts.Declared, woven)
	}
}
