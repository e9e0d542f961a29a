// Command petgen builds and inspects Probabilistic Execution Time (PET)
// matrices: the per-(task type, machine type) execution-time PMFs the
// whole mechanism runs on.
//
//	petgen -profile spec                  # mean matrix + machine list
//	petgen -profile video -stats          # add per-cell stddev / quantiles
//	petgen -profile spec -dump pet.csv    # full impulse dump as CSV
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("petgen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command: it parses args, builds the
// matrix, and writes every report to stdout. Usage and flag-parse
// diagnostics go to stderr so piped report output stays clean.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("petgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profileName = fs.String("profile", "spec", "system profile: spec | video | homog")
		seed        = fs.Int64("seed", pet.DefaultProfileSeed, "build seed")
		samples     = fs.Int("samples", 500, "Gamma samples per PET cell")
		bins        = fs.Int("bins", 25, "histogram bins per PMF")
		stats       = fs.Bool("stats", false, "print per-cell stddev and quantiles")
		dump        = fs.String("dump", "", "write the full PET impulse list to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is a success
		}
		// The flag package already printed the specific diagnostic.
		return errors.New("invalid arguments")
	}

	profile, err := pet.ProfileFromSpec(*profileName)
	if err != nil {
		return err
	}
	if *samples < 1 || *bins < 1 {
		return fmt.Errorf("-samples and -bins must be >= 1")
	}
	m := pet.Build(profile, *seed, pet.BuildOptions{SamplesPerCell: *samples, BinsPerPMF: *bins})

	fmt.Fprintf(stdout, "PET matrix %q — %d task types × %d machine types, %d machines\n\n",
		profile.Name, m.NumTaskTypes(), m.NumMachineTypes(), len(m.Machines()))

	fmt.Fprintln(stdout, "machines:")
	for _, spec := range m.Machines() {
		fmt.Fprintf(stdout, "  [%d] %-40s $%.3f/h\n", spec.Index, spec.Name, spec.PriceHour)
	}

	fmt.Fprintln(stdout, "\nmean execution time (ms):")
	fmt.Fprintf(stdout, "  %-20s", "task type \\ machine")
	for j := range profile.MachineTypeNames {
		fmt.Fprintf(stdout, " %8s", fmt.Sprintf("mt%d", j))
	}
	fmt.Fprintf(stdout, " %9s\n", "avg_i")
	for i := 0; i < m.NumTaskTypes(); i++ {
		fmt.Fprintf(stdout, "  %-20.20s", profile.TaskTypeNames[i])
		for j := 0; j < m.NumMachineTypes(); j++ {
			fmt.Fprintf(stdout, " %8.1f", m.CellMean(pet.TaskType(i), pet.MachineType(j)))
		}
		fmt.Fprintf(stdout, " %9.1f\n", m.TypeMean(pet.TaskType(i)))
	}
	fmt.Fprintf(stdout, "\n  avg_all = %.1f ms\n", m.MeanAll())

	if *stats {
		fmt.Fprintln(stdout, "\nper-cell spread (stddev ms | p50 | p95):")
		for i := 0; i < m.NumTaskTypes(); i++ {
			fmt.Fprintf(stdout, "  %-20.20s", profile.TaskTypeNames[i])
			for j := 0; j < m.NumMachineTypes(); j++ {
				cell := m.ExecPMF(pet.TaskType(i), pet.MachineType(j))
				fmt.Fprintf(stdout, " %6.1f|%d|%d", cell.StdDev(), cell.Quantile(0.5), cell.Quantile(0.95))
			}
			fmt.Fprintln(stdout)
		}
	}

	if *dump != "" {
		if err := dumpCSV(*dump, m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote impulse dump to %s\n", *dump)
	}
	return nil
}

// dumpCSV writes every impulse of every PET cell as
// task_type,machine_type,tick,probability rows.
func dumpCSV(path string, m *pet.Matrix) error {
	var b strings.Builder
	b.WriteString("task_type,machine_type,tick_ms,probability\n")
	p := m.Profile()
	for i := 0; i < m.NumTaskTypes(); i++ {
		for j := 0; j < m.NumMachineTypes(); j++ {
			for _, im := range m.ExecPMF(pet.TaskType(i), pet.MachineType(j)).Impulses() {
				fmt.Fprintf(&b, "%s,%s,%d,%.9f\n",
					p.TaskTypeNames[i], p.MachineTypeNames[j], pmf.Tick(im.T), im.P)
			}
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
