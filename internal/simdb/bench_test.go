package simdb

import (
	"context"
	"testing"

	"repro/internal/corpus"
)

func benchServer(b *testing.B) (*Server, []*corpus.Table) {
	b.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.GitTablesProfile(20), 1)
	s := NewServer(NoLatency)
	s.LoadTables("db", ds.Train)
	return s, ds.Train
}

func BenchmarkTableMetadata(b *testing.B) {
	s, tables := benchServer(b)
	conn, _ := s.Connect(context.Background(), "db")
	defer conn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.TableMetadata(context.Background(), tables[i%len(tables)].Name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFirstRows(b *testing.B) {
	s, tables := benchServer(b)
	conn, _ := s.Connect(context.Background(), "db")
	defer conn.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tables[i%len(tables)]
		if _, err := conn.ScanColumns(context.Background(), t.Name, []string{t.Columns[0].Name}, ScanOptions{Rows: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanRandomSample(b *testing.B) {
	s, tables := benchServer(b)
	conn, _ := s.Connect(context.Background(), "db")
	defer conn.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tables[i%len(tables)]
		if _, err := conn.ScanColumns(context.Background(), t.Name, []string{t.Columns[0].Name}, ScanOptions{Strategy: RandomSample, Rows: 50, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeTable(b *testing.B) {
	s, tables := benchServer(b)
	conn, _ := s.Connect(context.Background(), "db")
	defer conn.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.AnalyzeTable(context.Background(), tables[i%len(tables)].Name, AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeStats(b *testing.B) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(5), 1)
	vals := ds.Train[0].Columns[0].Values
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeStats(vals, 8)
	}
}
