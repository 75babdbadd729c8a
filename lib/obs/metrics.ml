type t = {
  m_ticks : int;
  m_waits : int;
  m_preemptions : int;
  m_evictions : int;
  m_stale_reads : int;
  m_det_checks : int;
  m_desyncs : int;
  m_timeouts : int;
  m_retries : int;
  m_salvages : int;
  m_cov_bits : int;
  m_corpus_adds : int;
  m_energy : int;
  m_predicted : int;
  m_pred_verified : int;
  m_pred_refuted : int;
}

let zero =
  {
    m_ticks = 0;
    m_waits = 0;
    m_preemptions = 0;
    m_evictions = 0;
    m_stale_reads = 0;
    m_det_checks = 0;
    m_desyncs = 0;
    m_timeouts = 0;
    m_retries = 0;
    m_salvages = 0;
    m_cov_bits = 0;
    m_corpus_adds = 0;
    m_energy = 0;
    m_predicted = 0;
    m_pred_verified = 0;
    m_pred_refuted = 0;
  }

let add a b =
  {
    m_ticks = a.m_ticks + b.m_ticks;
    m_waits = a.m_waits + b.m_waits;
    m_preemptions = a.m_preemptions + b.m_preemptions;
    m_evictions = a.m_evictions + b.m_evictions;
    m_stale_reads = a.m_stale_reads + b.m_stale_reads;
    m_det_checks = a.m_det_checks + b.m_det_checks;
    m_desyncs = a.m_desyncs + b.m_desyncs;
    m_timeouts = a.m_timeouts + b.m_timeouts;
    m_retries = a.m_retries + b.m_retries;
    m_salvages = a.m_salvages + b.m_salvages;
    m_cov_bits = a.m_cov_bits + b.m_cov_bits;
    m_corpus_adds = a.m_corpus_adds + b.m_corpus_adds;
    m_energy = a.m_energy + b.m_energy;
    m_predicted = a.m_predicted + b.m_predicted;
    m_pred_verified = a.m_pred_verified + b.m_pred_verified;
    m_pred_refuted = a.m_pred_refuted + b.m_pred_refuted;
  }

(* Sums of [t]s, one slot per field in declaration order, so
   accumulating a run allocates nothing. *)
type sum = int array

let sum () = Array.make 16 0

let accumulate (s : sum) m =
  s.(0) <- s.(0) + m.m_ticks;
  s.(1) <- s.(1) + m.m_waits;
  s.(2) <- s.(2) + m.m_preemptions;
  s.(3) <- s.(3) + m.m_evictions;
  s.(4) <- s.(4) + m.m_stale_reads;
  s.(5) <- s.(5) + m.m_det_checks;
  s.(6) <- s.(6) + m.m_desyncs;
  s.(7) <- s.(7) + m.m_timeouts;
  s.(8) <- s.(8) + m.m_retries;
  s.(9) <- s.(9) + m.m_salvages;
  s.(10) <- s.(10) + m.m_cov_bits;
  s.(11) <- s.(11) + m.m_corpus_adds;
  s.(12) <- s.(12) + m.m_energy;
  s.(13) <- s.(13) + m.m_predicted;
  s.(14) <- s.(14) + m.m_pred_verified;
  s.(15) <- s.(15) + m.m_pred_refuted

let total (s : sum) =
  {
    m_ticks = s.(0);
    m_waits = s.(1);
    m_preemptions = s.(2);
    m_evictions = s.(3);
    m_stale_reads = s.(4);
    m_det_checks = s.(5);
    m_desyncs = s.(6);
    m_timeouts = s.(7);
    m_retries = s.(8);
    m_salvages = s.(9);
    m_cov_bits = s.(10);
    m_corpus_adds = s.(11);
    m_energy = s.(12);
    m_predicted = s.(13);
    m_pred_verified = s.(14);
    m_pred_refuted = s.(15);
  }

let equal a b =
  a.m_ticks = b.m_ticks
  && a.m_waits = b.m_waits
  && a.m_preemptions = b.m_preemptions
  && a.m_evictions = b.m_evictions
  && a.m_stale_reads = b.m_stale_reads
  && a.m_det_checks = b.m_det_checks
  && a.m_desyncs = b.m_desyncs
  && a.m_timeouts = b.m_timeouts
  && a.m_retries = b.m_retries
  && a.m_salvages = b.m_salvages
  && a.m_cov_bits = b.m_cov_bits
  && a.m_corpus_adds = b.m_corpus_adds
  && a.m_energy = b.m_energy
  && a.m_predicted = b.m_predicted
  && a.m_pred_verified = b.m_pred_verified
  && a.m_pred_refuted = b.m_pred_refuted

let pp fmt m =
  Format.fprintf fmt
    "%d ticks, %d waits, %d preemptions, %d evictions, %d stale reads, %d \
     detector checks, %d desyncs, %d timeouts, %d retries, %d salvages, %d \
     coverage bits, %d corpus adds, %d energy, %d predicted, %d verified, %d \
     refuted"
    m.m_ticks m.m_waits m.m_preemptions m.m_evictions m.m_stale_reads
    m.m_det_checks m.m_desyncs m.m_timeouts m.m_retries m.m_salvages
    m.m_cov_bits m.m_corpus_adds m.m_energy m.m_predicted m.m_pred_verified
    m.m_pred_refuted

let to_json m =
  Printf.sprintf
    "{\"ticks\": %d, \"waits\": %d, \"preemptions\": %d, \"evictions\": %d, \
     \"stale_reads\": %d, \"detector_checks\": %d, \"desyncs\": %d, \
     \"timeouts\": %d, \"retries\": %d, \"salvages\": %d, \
     \"coverage_bits\": %d, \"corpus_adds\": %d, \"energy\": %d, \
     \"predicted\": %d, \"pred_verified\": %d, \"pred_refuted\": %d}"
    m.m_ticks m.m_waits m.m_preemptions m.m_evictions m.m_stale_reads
    m.m_det_checks m.m_desyncs m.m_timeouts m.m_retries m.m_salvages
    m.m_cov_bits m.m_corpus_adds m.m_energy m.m_predicted m.m_pred_verified
    m.m_pred_refuted
