// Command whatsup-datagen generates one of the evaluation workloads and
// writes it to stdout (or a file) as JSON: items with publication schedule
// and audience, per-user interest counts, and the social graph when present.
//
// Usage:
//
//	whatsup-datagen -dataset digg -scale 0.5 -out digg.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"whatsup/internal/dataset"
	"whatsup/internal/experiments"
)

// itemDTO is the JSON form of one workload item.
type itemDTO struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	Topic      int    `json:"topic"`
	Cycle      int64  `json:"cycle"`
	Source     int32  `json:"source"`
	Interested int    `json:"interested"`
	Audience   []int  `json:"audience"`
}

// datasetDTO is the JSON form of a workload.
type datasetDTO struct {
	Name   string    `json:"name"`
	Users  int       `json:"users"`
	Cycles int       `json:"cycles"`
	Topics int       `json:"topics"`
	Items  []itemDTO `json:"items"`
	Social [][]int32 `json:"social,omitempty"`
}

func toDTO(ds *dataset.Dataset) datasetDTO {
	dto := datasetDTO{Name: ds.Name, Users: ds.Users, Cycles: ds.Cycles, Topics: ds.Topics}
	for i := range ds.Items {
		it := ds.Items[i]
		audience := make([]int, 0, it.Interested)
		for _, u := range ds.InterestedUsers(i) {
			audience = append(audience, int(u))
		}
		dto.Items = append(dto.Items, itemDTO{
			ID:         it.News.ID.String(),
			Title:      it.News.Title,
			Topic:      it.News.Topic,
			Cycle:      it.Cycle,
			Source:     int32(it.News.Source),
			Interested: it.Interested,
			Audience:   audience,
		})
	}
	if ds.Social != nil {
		dto.Social = make([][]int32, len(ds.Social))
		for u, out := range ds.Social {
			for _, v := range out {
				dto.Social[u] = append(dto.Social[u], int32(v))
			}
		}
	}
	return dto
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with explicit arguments and streams so tests can
// drive the full main path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatsup-datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName = fs.String("dataset", "survey", "workload: synthetic, digg, survey")
		scale  = fs.Float64("scale", 0.5, "dataset scale (1.0 = paper sizes)")
		seed   = fs.Int64("seed", 1, "seed")
		out    = fs.String("out", "-", "output file ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	ds, err := experiments.DatasetByName(*dsName, experiments.Options{Seed: *seed, Scale: *scale}.WithDefaults())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(toDTO(ds)); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
