// Command mkdataset builds the paper's two evaluation datasets: the
// tagged multiscript lexicon (§4.1) written as a TSV, and the large
// synthetic set (§5) loaded into an embedded database directory: the
// names table with its id index, its phonetic index and its gram index
// (the q-gram postings of Figure 14), ready for cmd/perf. Directories
// written by builds that kept the q-gram postings in a names_qgrams
// table do not open any more; rerun mkdataset to reload them.
//
// Usage:
//
//	mkdataset -out data -rows 200000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/dataset"
	"lexequal/internal/db"
	"lexequal/internal/ttp"
)

func main() {
	var (
		out     = flag.String("out", "data", "output directory")
		rows    = flag.Int("rows", dataset.DefaultGeneratedSize, "size of the generated performance dataset")
		noPerf  = flag.Bool("skip-perf", false, "only write the lexicon, skip the database load")
		quality = flag.Bool("quality-db", false, "also load the (small) lexicon itself as a database table")
	)
	flag.Parse()

	if err := run(*out, *rows, !*noPerf, *quality); err != nil {
		fmt.Fprintln(os.Stderr, "mkdataset:", err)
		os.Exit(1)
	}
}

func run(out string, rows int, perf, quality bool) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	op, err := core.New(core.Options{})
	if err != nil {
		return err
	}

	fmt.Println("building tagged multiscript lexicon...")
	lex, err := dataset.BuildLexicon(ttp.Default(), dataset.SourceAll)
	if err != nil {
		return err
	}
	lh, ph, err := dataset.Distributions(lex.Entries, op)
	if err != nil {
		return err
	}
	fmt.Printf("  %d entries in %d tag groups; avg lengths %.2f (lexicographic) / %.2f (phonemic)\n",
		len(lex.Entries), lex.Groups, lh.Mean(), ph.Mean())

	lexPath := filepath.Join(out, "lexicon.tsv")
	if err := writeLexicon(lexPath, lex, op); err != nil {
		return err
	}
	fmt.Println("  wrote", lexPath)

	if quality {
		dir := filepath.Join(out, "lexicon.db")
		fmt.Println("loading lexicon database at", dir, "...")
		if err := loadDB(dir, op, lex.Texts()); err != nil {
			return err
		}
	}

	if perf {
		fmt.Printf("generating %d-row synthetic dataset...\n", rows)
		gen := dataset.Generate(lex, rows)
		glh, gph, err := dataset.Distributions(gen, op)
		if err != nil {
			return err
		}
		fmt.Printf("  %d entries; avg lengths %.2f (lexicographic) / %.2f (phonemic)\n",
			len(gen), glh.Mean(), gph.Mean())
		dir := filepath.Join(out, "perf.db")
		fmt.Println("loading performance database at", dir, "(heap + indexes + gram index)...")
		start := time.Now()
		texts := make([]core.Text, len(gen))
		for i, e := range gen {
			texts[i] = e.Text
		}
		if err := loadDB(dir, op, texts); err != nil {
			return err
		}
		fmt.Printf("  loaded in %v\n", time.Since(start))
	}
	return nil
}

func writeLexicon(path string, lex *dataset.Lexicon, op *core.Operator) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "tag\tlanguage\tname\tipa"); err != nil {
		return err
	}
	for _, e := range lex.Entries {
		p, err := op.Transform(e.Text.Value, e.Text.Lang)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "%d\t%s\t%s\t%s\n", e.Tag, e.Text.Lang, e.Text.Value, p.IPA()); err != nil {
			return err
		}
	}
	return nil
}

func loadDB(dir string, op *core.Operator, texts []core.Text) error {
	// Atomic: the load runs in a staging directory and is renamed into
	// place, so an interrupted mkdataset never leaves a half-built
	// database where cmd/perf would look for one.
	return db.BuildAtomic(dir, db.Options{}, func(d *db.DB) error {
		_, err := db.CreateNameTable(d, "names", op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true})
		return err
	})
}
