package pipeline

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// mixedJobs builds jobs alternating sleep-bound prep stages with spin-bound
// infer stages, the resource split Algorithm 1 exploits.
func mixedJobs(n int, prep, infer time.Duration) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		j := &Job{ID: fmt.Sprintf("t%d", i)}
		for k := 0; k < 4; k++ {
			kind := Prep
			d := prep
			if k%2 == 1 {
				kind = Infer
				d = infer
			}
			j.Stages = append(j.Stages, Stage{Kind: kind, Run: func(context.Context) error {
				time.Sleep(d)
				return nil
			}})
		}
		jobs[i] = j
	}
	return jobs
}

func BenchmarkSequentialExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Scheduler{}.Run(context.Background(), mixedJobs(16, 200*time.Microsecond, 200*time.Microsecond))
	}
}

// BenchmarkPipelinedExecution runs under the cap of GOMAXPROCS Infer stages;
// -cpu sweeps it.
func BenchmarkPipelinedExecution(b *testing.B) {
	s := Scheduler{Pipelined: true}
	for i := 0; i < b.N; i++ {
		s.Run(context.Background(), mixedJobs(16, 200*time.Microsecond, 200*time.Microsecond))
	}
}
