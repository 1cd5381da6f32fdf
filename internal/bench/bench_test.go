package bench

import "testing"

// The serial/8-worker pairs quantify the deterministic-parallelism speedup on
// multicore hardware; on a single-CPU machine the pairs should be within
// scheduling noise of each other, never slower by more than the pool overhead.

func BenchmarkGPFitSerial(b *testing.B)          { GPFit(1)(b) }
func BenchmarkGPFitWorkers8(b *testing.B)        { GPFit(8)(b) }
func BenchmarkMSPSerial(b *testing.B)            { MSP(1)(b) }
func BenchmarkMSPWorkers8(b *testing.B)          { MSP(8)(b) }
func BenchmarkPredictBatchSerial(b *testing.B)   { PredictBatch(1)(b) }
func BenchmarkPredictBatchWorkers8(b *testing.B) { PredictBatch(8)(b) }
func BenchmarkPredictSingle(b *testing.B)        { PredictSingle()(b) }
func BenchmarkFusedPredict(b *testing.B)         { FusedPredict()(b) }
func BenchmarkCholesky160(b *testing.B)          { Cholesky(160)(b) }
