(* The speed of the machine, read from a fixed reference workload that
   shares no code with the library: a set-associative LRU cache model
   (512 KB, 64-byte lines, 8 ways, one record per line) fed the address
   stream of six rows of a 128x128 GEMM. One sample takes about
   [nominal_s] on an unloaded core.

   On a VM that shares its host (2 vCPUs of a 2.1 GHz Xeon), the same
   work takes 1.2 s in one minute and 2.0 s in the next, for minutes at
   a time, while a plain arithmetic loop keeps its speed. Of the
   reference loops tried (README.md), a cache model like this one
   followed a host-only GEMM run and a fleet replay most closely. Host
   timings are scaled by [nominal_s] over the median of samples taken
   right after them, raised to [exponent], so they read as if measured
   at the gauge's nominal speed; the raw timings are reported among the
   per-layer metrics.

   The workloads do not slow down alike: over ten runs each, their
   round times moved with the gauge's at slopes of about 1.1
   (paper-fig6), 0.9 (serve-diurnal) and 0.65 (graph-resident, whose
   crossbar arithmetic is less memory-bound). [exponent] is one value
   for all three, the one that left the least spread in the worst of
   them (README.md). *)

let nominal_s = 0.0045
let exponent = 0.75

type line = { mutable tag : int; mutable valid : bool; mutable lru : int }

let set_bits = 10
let ways = 8

let sets =
  Array.init (1 lsl set_bits) (fun _ ->
      Array.init ways (fun _ -> { tag = 0; valid = false; lru = 0 }))

let clock = ref 0

let access addr =
  let line = addr lsr 6 in
  let set = Array.unsafe_get sets (line land ((1 lsl set_bits) - 1)) in
  let tag = line lsr set_bits in
  let hit = ref (-1) and victim = ref 0 and i = ref 0 in
  while !hit < 0 && !i < ways do
    let l = Array.unsafe_get set !i in
    if l.valid && l.tag = tag then hit := !i
    else if (not l.valid) || l.lru < (Array.unsafe_get set !victim).lru then victim := !i;
    incr i
  done;
  incr clock;
  if !hit >= 0 then (Array.unsafe_get set !hit).lru <- !clock
  else begin
    let v = Array.unsafe_get set !victim in
    v.tag <- tag;
    v.valid <- true;
    v.lru <- !clock
  end

(* rows [0, rows) of C = A * B over 8-byte elements, A, B and C 1 MB apart *)
let gemm_stream rows =
  let n = 128 in
  for i = 0 to rows - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        access (((i * n) + k) * 8);
        access (0x100000 + (((k * n) + j) * 8))
      done;
      access (0x200000 + (((i * n) + j) * 8))
    done
  done

(* seconds of one sample *)
let sample () =
  let t0 = Unix.gettimeofday () in
  gemm_stream 6;
  Unix.gettimeofday () -. t0

(* every sample taken, for the run's report *)
let samples : float list ref = ref []

(* [nominal_s] over the median of fresh samples, to the power
   [exponent]: the factor that turns [seconds] of host time just
   measured into time at the nominal speed. It takes one sample per
   50 ms measured, at least 3: about 8% on top. *)
let scale seconds =
  let xs = List.init (max 3 (int_of_float (seconds /. 0.05))) (fun _ -> sample ()) in
  samples := xs @ !samples;
  (nominal_s /. Tdo_util.Stats.percentile xs ~p:50.0) ** exponent
