(* The repository benchmark: three workloads through the public library
   API, each checked against references computed apart from the
   program. See README.md for the workloads, the metrics and how they
   relate.

   bench.exe --workload paper-fig6|serve-diurnal|graph-resident
             --seed N --seconds S --trace 0|1 [--smoke]

   The last line of standard output is one JSON object with [correct],
   [attempted], [failed] and [metrics]: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. The exit status
   is 1 when any output check failed. *)

module Flow = Tdo_cim.Flow
module Kernels = Tdo_polybench.Kernels
module Stats = Tdo_util.Stats
module Pool = Tdo_util.Pool
module Platform = Tdo_runtime.Platform
module Micro_engine = Tdo_cimacc.Micro_engine
module Backend = Tdo_backend.Backend
module Scheduler = Tdo_serve.Scheduler
module Device = Tdo_serve.Device
module Kernel_cache = Tdo_serve.Kernel_cache
module Telemetry = Tdo_serve.Telemetry
module Trace = Tdo_serve.Trace
module Admission = Tdo_serve.Admission
module Workload = Tdo_loadgen.Workload
module Arrival = Tdo_loadgen.Arrival
module Codec = Tdo_loadgen.Codec
module Graph = Tdo_graph.Graph

let now = Unix.gettimeofday
let median xs = if xs = [] then 0.0 else Stats.percentile xs ~p:50.0
let sum = List.fold_left ( +. ) 0.0

(* ---------- run-wide accounting ---------- *)

type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable bad : int;  (* output checks that failed *)
  mutable words : float;  (* minor words allocated in timed calls *)
  mutable timed_ops : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted : float;
  mutable plain : float * int;  (* scaled seconds and ops of timed calls, untraced *)
  mutable traced : float * int;  (* and traced *)
}

let acct =
  {
    attempted = 0;
    failed = 0;
    bad = 0;
    words = 0.0;
    timed_ops = 0;
    minor_gcs = 0;
    major_gcs = 0;
    promoted = 0.0;
    plain = (0.0, 0);
    traced = (0.0, 0);
  }

let check what ok =
  if not ok then begin
    acct.bad <- acct.bad + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* Time [f] and charge its allocation and collections to the timed
   phase, which performs [ops] ops. Returns [f]'s value, its host time
   scaled to the gauge's nominal speed (see gauge.ml) and its raw host
   time; the gauge samples taken for the scaling are not timed. *)
let timed ~ops f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  let g1 = Gc.quick_stat () in
  acct.words <- acct.words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  acct.minor_gcs <- acct.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  acct.major_gcs <- acct.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
  acct.promoted <- acct.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  acct.timed_ops <- acct.timed_ops + ops;
  let scaled = dt *. Gauge.scale dt in
  let add (s, n) = (s +. scaled, n + ops) in
  if !Span.enabled then acct.traced <- add acct.traced else acct.plain <- add acct.plain;
  (v, scaled, dt)

(* A traced run alternates untraced and traced cycles of rounds, so the
   tracing overhead is measured against rounds run at the same time. *)
let tracing = ref false

(* Whole rounds of the same ops until [seconds] is spent: a round is not
   started when the previous one says it would overrun, but at least
   one cycle of [cycle] rounds (two when tracing, every later round
   traced) runs. Returns the number of rounds. *)
let rounds ~seconds ~cycle f =
  let t0 = now () in
  let min = if !tracing then 2 * cycle else cycle in
  let rec go i last =
    if i >= min && now () -. t0 +. last > seconds then i
    else begin
      if !tracing then Span.enabled := i / cycle mod 2 = 1;
      let s = now () in
      f i;
      go (i + 1) (now () -. s)
    end
  in
  let n = go 0 0.0 in
  Span.enabled := !tracing;
  n

(* Median over [k] repetitions of a set-up step, each scaled to the
   gauge's nominal speed, and the step's last result. *)
let setup_median k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    let t0 = now () in
    last := Some (f ());
    let dt = now () -. t0 in
    times := (dt *. Gauge.scale dt) :: !times
  done;
  (median !times, Option.get !last)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type metric = string * float * string

type outcome = { e2e : metric list; layers : metric list }

(* figures every workload reports the same way; [peak_mb] is read when
   the timed rounds end, before the checks and the ladder *)
let common_e2e ~setup_s ~peak_mb =
  [
    ("setup_s", setup_s, "s");
    ("alloc_kw_per_op", acct.words /. 1000.0 /. float_of_int (max 1 acct.timed_ops), "kwords");
    ("peak_heap_mb", peak_mb, "MB");
  ]

let common_layers ~rounds =
  let per_round x = x /. float_of_int (max 1 rounds) in
  [
    ("gc.minor_collections", per_round (float_of_int acct.minor_gcs), "count");
    ("gc.major_collections", per_round (float_of_int acct.major_gcs), "count");
    ("gc.promoted_kw", per_round (acct.promoted /. 1000.0), "kwords");
  ]

let span_ms name = 1e3 *. median (Span.durations name)

(* the host figures before scaling, and the gauge that scaled them *)
let raw_layers ~host ~oracle =
  [
    ("gauge.sample_ms", 1e3 *. median !Gauge.samples, "ms");
    ("raw.host_ops_per_s", host, "1/s");
    ("raw.oracle_ops_per_s", oracle, "1/s");
  ]

(* ---------- paper-fig6 ---------- *)

(* Host-only ("host", Flow.o3) and TDO-CIM ("cim", Flow.o3_loop_tactics)
   builds of the seven PolyBench kernels at the Large size, each
   compiled and run on a fresh platform. The host-only build is the
   reference path that offloads nothing: it is what oracle_ops_per_s
   times on this workload. Round [r] draws its data from seed
   [seed * 1000 + r]; the simulated figures come from round 0. *)
let paper_fig6 ~seed ~seconds ~smoke =
  let n = if smoke then 16 else 96 in
  let data_seed r = (seed * 1000) + r in
  let builds = [ ("host", Flow.o3); ("cim", Flow.o3_loop_tactics) ] in
  let setup_s, () =
    setup_median (if smoke then 1 else 5) (fun () ->
        List.iter
          (fun (b : Kernels.benchmark) ->
            ignore (b.Kernels.make_args ~n ~seed:(data_seed 0));
            (* the offloaded builds prime the scratch arena and the
               engine buffers at full size; they cost ~0.1 s together *)
            let args, _ = b.Kernels.make_args ~n ~seed in
            ignore (Flow.run_source ~options:Flow.o3_loop_tactics (b.Kernels.source ~n) ~args))
          Kernels.all)
  in
  let first = Hashtbl.create 16 in
  let time_host = ref [] and time_cim = ref [] in
  let raw_host = ref [] and raw_cim = ref [] in
  let round r =
    let th = ref 0.0 and tc = ref 0.0 and rh = ref 0.0 and rc = ref 0.0 in
    List.iter
      (fun (b : Kernels.benchmark) ->
        let name = b.Kernels.name in
        let expect =
          let args, _ = b.Kernels.make_args ~n ~seed:(data_seed r) in
          Refs.polybench ~name ~n args
        in
        List.iter
          (fun (build, options) ->
            acct.attempted <- acct.attempted + 1;
            let args, readback = b.Kernels.make_args ~n ~seed:(data_seed r) in
            match
              timed ~ops:1 (fun () ->
                  let c =
                    Span.with_ "flow.compile" (fun () ->
                        Flow.compile_checked ~options (b.Kernels.source ~n))
                  in
                  Span.with_ ("flow.run_" ^ build) (fun () -> fst (Flow.run c.Flow.func ~args)))
            with
            | exception e ->
                acct.failed <- acct.failed + 1;
                Printf.eprintf "%s/%s failed: %s\n%!" name build (Printexc.to_string e)
            | m, dt, raw ->
                if build = "host" then (th := !th +. dt; rh := !rh +. raw)
                else (tc := !tc +. dt; rc := !rc +. raw);
                let cim = build = "cim" in
                check
                  (Printf.sprintf "%s/%s round %d against the reference loops" name build r)
                  (Refs.violations ~cim ~expect (readback ()) = 0);
                check
                  (Printf.sprintf "%s/%s offloaded exactly when built with tactics" name build)
                  (cim || not m.Flow.used_cim);
                (match Hashtbl.find_opt first (name, build) with
                | None -> Hashtbl.replace first (name, build) m
                | Some (m0 : Flow.measurement) ->
                    check
                      (Printf.sprintf "%s/%s simulated cycles repeat across data seeds" name build)
                      (m0.Flow.roi_cycles = m.Flow.roi_cycles)))
          builds)
      Kernels.all;
    time_host := !th :: !time_host;
    time_cim := !tc :: !time_cim;
    raw_host := !rh :: !raw_host;
    raw_cim := !rc :: !raw_cim;
    if not smoke then
      Printf.eprintf "round %d: host-only builds %.3f s (raw %.3f), TDO-CIM builds %.3f s (raw %.3f)\n%!"
        r !th !rh !tc !rc
  in
  let nrounds = rounds ~seconds ~cycle:(if smoke then 1 else 3) round in
  let peak_mb = peak_heap_mb () in
  let kernels = float_of_int (List.length Kernels.all) in
  let m build (b : Kernels.benchmark) = Hashtbl.find first (b.Kernels.name, build) in
  let per_kernel f = List.map (fun b -> f (m "host" b) (m "cim" b)) Kernels.all in
  let all_ops = List.concat_map (fun b -> [ m "host" b; m "cim" b ]) Kernels.all in
  let ops = float_of_int (List.length all_ops) in
  let sum_ops f = sum (List.map f all_ops) in
  let sim_us = List.map (fun (x : Flow.measurement) -> 1e6 *. x.Flow.time_s) all_ops in
  let per_s times = median (List.map (fun t -> kernels /. t) times) in
  let e2e =
    [
      ("host_ops_per_s", per_s !time_cim, "1/s");
      ("oracle_ops_per_s", per_s !time_host, "1/s");
      ( "sim_speedup_geomean",
        Stats.geomean (per_kernel (fun h c -> h.Flow.time_s /. c.Flow.time_s)),
        "x" );
      ( "energy_gain_geomean",
        Stats.geomean (per_kernel (fun h c -> h.Flow.energy_j /. c.Flow.energy_j)),
        "x" );
      ("sim_p50_us", Stats.percentile sim_us ~p:50.0, "sim-us");
      ("sim_p99_us", Stats.percentile sim_us ~p:99.0, "sim-us");
      ( "sim_capacity_rps",
        kernels /. sum (per_kernel (fun _ c -> c.Flow.time_s)),
        "sim-1/s" );
      ("write_kb_per_op", sum_ops (fun x -> float_of_int x.Flow.cim_write_bytes) /. 1000.0 /. ops, "KB");
      ("energy_uj_per_op", 1e6 *. sum_ops (fun x -> x.Flow.energy_j) /. ops, "uJ");
    ]
  in
  let host_ops = List.map (m "host") Kernels.all in
  let layers =
    [
      ("flow.compile_ms", span_ms "flow.compile", "ms");
      ("flow.run_host_ms", span_ms "flow.run_host", "ms");
      ("flow.run_cim_ms", span_ms "flow.run_cim", "ms");
      ( "sim.minst_per_host_s",
        (let runs = Span.durations "flow.run_host" in
         if runs = [] then 0.0
         else
           float_of_int (List.length runs)
           /. kernels
           *. sum (List.map (fun x -> float_of_int x.Flow.roi_instructions) host_ops)
           /. sum runs /. 1e6),
        "Minst/s" );
      ("sim.roi_instructions", sum_ops (fun x -> float_of_int x.Flow.roi_instructions), "count");
      ("sim.roi_cycles", sum_ops (fun x -> float_of_int x.Flow.roi_cycles), "count");
      ("cimacc.launches", sum_ops (fun x -> float_of_int x.Flow.launches), "count");
      ("cimacc.macs", sum_ops (fun x -> float_of_int x.Flow.cim_macs), "count");
      ("pcm.write_bytes", sum_ops (fun x -> float_of_int x.Flow.cim_write_bytes), "bytes");
    ]
  in
  {
    e2e = common_e2e ~setup_s ~peak_mb @ e2e;
    layers =
      common_layers ~rounds:nrounds
      @ raw_layers ~host:(per_s !raw_cim) ~oracle:(per_s !raw_host)
      @ layers;
  }

(* ---------- serving workloads ---------- *)

let fleet = Array.of_list (Result.get_ok (Backend.parse_fleet "pcm:2,digital:2,dual:2"))

(* one golden oracle per compute class, in fleet order *)
let golden_profiles =
  Array.fold_left
    (fun acc (p : Backend.profile) ->
      if List.exists (fun (q : Backend.profile) -> q.Backend.cls = p.Backend.cls) acc then acc
      else acc @ [ p ])
    [] fleet

let graph_benches = List.map (fun g -> (Graph.kernel_name g, Graph.benchmark g)) Graph.standard

let find_bench name =
  match List.assoc_opt name graph_benches with
  | Some b -> b
  | None -> Result.get_ok (Kernels.find name)

let expected ~name ~n args =
  match Graph.find name with
  | Ok g -> Refs.graph g args
  | Error _ -> Refs.polybench ~name ~n args

type serve_spec = {
  subtraces : int;
  count : int;  (* requests per sub-trace *)
  tenants : Workload.tenant list;
  config : Scheduler.config;
  ladder_tenants : float -> Workload.tenant list;
  ladder_rates : float list;  (* ascending, requests per simulated second *)
  ladder_start : int;  (* index of the first rung tried *)
  ladder_count : int;
  limit_us : float;  (* simulated p99 limit of a passing rung *)
}

let platform_config ~tiles =
  let d = Platform.default_config in
  { d with Platform.engine = { d.Platform.engine with Micro_engine.tiles } }

let base_config ~tiles =
  {
    Scheduler.default_config with
    Scheduler.fleet = Some (Array.to_list fleet);
    platform_config = platform_config ~tiles;
    parallel = false;
  }

(* Per-tenant token buckets at 1.5x each tenant's share and SLO-class
   queue-fill shedding, as the load bench of tdo-serve uses. *)
let load_policy ~rate =
  let bucket share = { Admission.rate_per_s = 1.5 *. share *. rate; burst = 200.0 } in
  {
    Admission.per_tenant = [ (1, bucket 0.5); (2, bucket 0.3); (3, bucket 0.2) ];
    default_bucket = None;
    batch_above = 0.8;
    best_effort_above = 0.5;
  }

let diurnal_spec ~smoke =
  let rate = 20_000.0 and count = if smoke then 200 else 1000 in
  (* one whole raised-cosine day (0.5x to 1.5x of the rate) over the
     trace, so the fleet sees both the trough and the peak *)
  let period_s = float_of_int count /. rate in
  let process _slo share =
    Arrival.Diurnal { base_rps = 0.5 *. share; peak_rps = 1.5 *. share; period_s }
  in
  {
    subtraces = (if smoke then 1 else 8);
    count;
    tenants = Workload.standard_tenants ~process ~total_rate_rps:rate ();
    config =
      {
        (base_config ~tiles:1) with
        Scheduler.admission = Some (load_policy ~rate);
        calibrate_after = Some 200;
      };
    ladder_tenants = (fun rate -> Workload.standard_tenants ~total_rate_rps:rate ());
    ladder_rates = [ 10_000.0; 20_000.0; 30_000.0; 40_000.0; 50_000.0 ];
    ladder_start = 2;
    ladder_count = (if smoke then 200 else 2000);
    limit_us = 2000.0;
  }

(* Half the graph knee (between 20k and 30k rps): latency reflects
   service and residency rather than queueing at the edge of saturation,
   where p50 moves by +-15% between seeds of a 2000-request trace. *)
let graph_spec ~smoke =
  let rate = 10_000.0 in
  {
    subtraces = (if smoke then 1 else 8);
    count = (if smoke then 100 else 1000);
    tenants = Workload.graph_tenants ~total_rate_rps:rate ();
    config =
      { (base_config ~tiles:4) with Scheduler.graphs = graph_benches; graph_residency = true };
    ladder_tenants = (fun rate -> Workload.graph_tenants ~total_rate_rps:rate ());
    ladder_rates = [ 10_000.0; 20_000.0; 30_000.0; 40_000.0 ];
    ladder_start = 1;
    ladder_count = (if smoke then 100 else 1000);
    limit_us = 5000.0;
  }

let pct (r : Scheduler.report) p =
  Option.value ~default:0.0 (Telemetry.latency_percentile r.Scheduler.telemetry ~p)

let completed_records (r : Scheduler.report) =
  List.filter
    (fun (rc : Telemetry.record) -> rc.Telemetry.outcome = Telemetry.Completed)
    (Telemetry.records r.Scheduler.telemetry)

let write_bytes r =
  List.fold_left (fun acc rc -> acc + rc.Telemetry.write_bytes) 0 (completed_records r)

(* what must repeat exactly when the same trace is replayed again *)
let fingerprint (r : Scheduler.report) =
  ( Telemetry.summary r.Scheduler.telemetry,
    r.Scheduler.makespan_ps,
    List.map
      (fun (rc : Telemetry.record) -> (rc.Telemetry.finish_ps, rc.Telemetry.checksum))
      (Telemetry.records r.Scheduler.telemetry) )

(* a new copy of fleet device [id], in the compute role *)
let fresh_device (config : Scheduler.config) id =
  let d =
    Device.create ~platform_config:config.Scheduler.platform_config
      ~seed:(config.Scheduler.device_seed + id) ~backend:fleet.(id) ~id ()
  in
  if Device.mode d = Backend.Memory_mode then ignore (Device.convert d ~to_compute:true : float);
  d

(* Each distinct (kernel or model, n, class) the fleet completed, re-run
   on a fresh device: the outputs must carry the checksum the fleet
   recorded and lie within the offload bound of the reference loops,
   and the host-only build of the same request within the binary32
   bound. Returns the per-program simulated speed-ups and energy gains
   of the device over the host-only build. *)
let spot_check (spec : serve_spec) records =
  let config = spec.config in
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun (speedups, gains) (rc : Telemetry.record) ->
      let req = rc.Telemetry.request and id = Option.get rc.Telemetry.device in
      let prof = fleet.(id) in
      let key = (req.Trace.kernel, req.Trace.n, prof.Backend.cls) in
      if Hashtbl.mem seen key then (speedups, gains)
      else begin
        Hashtbl.add seen key ();
        let name = req.Trace.kernel and n = req.Trace.n and seed = req.Trace.seed in
        let what = Printf.sprintf "%s n=%d on %s" name n (Backend.class_name prof.Backend.cls) in
        let bench = find_bench name in
        let fresh () = bench.Kernels.make_args ~n ~seed in
        let expect = expected ~name ~n (fst (fresh ())) in
        let cache = Kernel_cache.create ~capacity:1 ~options:config.Scheduler.options () in
        let entry =
          Kernel_cache.find_or_compile cache ~cls:prof.Backend.cls (bench.Kernels.source ~n)
        in
        let dev = fresh_device config id in
        let args, readback = fresh () in
        let st = Device.run dev entry.Kernel_cache.compiled ~args in
        let out = readback () in
        check (what ^ ": checksum equals the fleet's")
          (Some (Scheduler.output_checksum out) = rc.Telemetry.checksum);
        check (what ^ ": within the offload bound") (Refs.violations ~cim:true ~expect out = 0);
        let hargs, hreadback = fresh () in
        let host, _ =
          Flow.run (Flow.compile_checked ~options:Flow.o3 (bench.Kernels.source ~n)).Flow.func
            ~args:hargs
        in
        check (what ^ ": host-only build within binary32 rounding")
          (Refs.violations ~cim:false ~expect (hreadback ()) = 0);
        ( (host.Flow.time_s *. 1e12 /. float_of_int st.Device.service_ps) :: speedups,
          (host.Flow.energy_j /. st.Device.energy_j) :: gains )
      end)
    ([], []) records

(* Highest rung of a fixed Poisson rate ladder whose simulated p99 meets
   [limit_us] with every request completed, searched up or down from
   [ladder_start] (0 when no rung passes). No admission, unbounded
   queue. *)
let capacity ~seed (spec : serve_spec) =
  let rates = Array.of_list spec.ladder_rates in
  let config = { spec.config with Scheduler.admission = None; queue_capacity = 0 } in
  let passes i =
    let trace =
      Workload.generate ~seed:(seed + 7919) ~count:spec.ladder_count
        (spec.ladder_tenants rates.(i))
    in
    let r = Span.with_ "scheduler.ladder" (fun () -> Scheduler.replay ~config trace) in
    Scheduler.completed r = spec.ladder_count && pct r 99.0 <= spec.limit_us
  in
  let rec up i = if i + 1 < Array.length rates && passes (i + 1) then up (i + 1) else rates.(i) in
  let rec down i = if i < 0 then 0.0 else if passes i then rates.(i) else down (i - 1) in
  if passes spec.ladder_start then up spec.ladder_start else down (spec.ladder_start - 1)

(* The replay hides the device and cache layers: re-execute the same
   requests' calls directly, in service order on the device each was
   served by, with spans around each call. *)
let direct (spec : serve_spec) (report : Scheduler.report) =
  let config = spec.config in
  let devices = Array.init (Array.length fleet) (fresh_device config) in
  let cache =
    Kernel_cache.create ~capacity:config.Scheduler.cache_capacity
      ~options:config.Scheduler.options ()
  in
  let records =
    List.sort
      (fun (a : Telemetry.record) b ->
        compare
          (a.Telemetry.start_ps, a.Telemetry.request.Trace.id)
          (b.Telemetry.start_ps, b.Telemetry.request.Trace.id))
      (completed_records report)
  in
  let launches = ref 0 and macs = ref 0 and writes = ref 0 and abft = ref 0 in
  List.iter
    (fun (rc : Telemetry.record) ->
      let req = rc.Telemetry.request in
      let dev = devices.(Option.get rc.Telemetry.device) in
      let bench = find_bench req.Trace.kernel in
      let entry =
        Span.with_ "kernel_cache.lookup" (fun () ->
            Kernel_cache.find_or_compile cache ~cls:(Device.device_class dev)
              (bench.Kernels.source ~n:req.Trace.n))
      in
      let residency =
        if config.Scheduler.graph_residency && List.mem_assoc req.Trace.kernel graph_benches
        then Some (entry.Kernel_cache.key ^ "#t" ^ string_of_int req.Trace.tenant)
        else None
      in
      let args, _ = bench.Kernels.make_args ~n:req.Trace.n ~seed:req.Trace.seed in
      let st =
        Span.with_
          ("device." ^ (Device.profile dev).Backend.name ^ ".run")
          (fun () -> Device.run ?residency dev entry.Kernel_cache.compiled ~args)
      in
      launches := !launches + st.Device.launches;
      macs := !macs + st.Device.macs;
      writes := !writes + st.Device.write_bytes;
      abft := !abft + st.Device.abft_checks)
    records;
  [
    ("cimacc.launches", float_of_int !launches, "count");
    ("cimacc.macs", float_of_int !macs, "count");
    ("pcm.write_bytes", float_of_int !writes, "bytes");
    ("device.abft_checks", float_of_int !abft, "count");
  ]

(* [spec.subtraces] traces of [spec.count] requests each, drawn from
   seeds [seed * subtraces + j]. Round [r] replays sub-trace [r mod subtraces]
   through the fleet and then through every per-class golden oracle;
   every sub-trace runs at least once, and the simulated figures pool
   the first replay of each. *)
let serve ~spec ~seed ~seconds ~smoke =
  let config = spec.config in
  let subtraces = spec.subtraces in
  let setup () =
    let traces =
      List.init subtraces (fun j ->
          let trace =
            Span.with_ "loadgen.generate" (fun () ->
                Workload.generate ~seed:((seed * subtraces) + j) ~count:spec.count spec.tenants)
          in
          let text = Span.with_ "codec.encode" (fun () -> Codec.encode trace) in
          (match Span.with_ "codec.decode" (fun () -> Codec.decode text) with
          | Ok back -> check "codec round trip" (back.Trace.requests = trace.Trace.requests)
          | Error msg -> check ("codec round trip: " ^ msg) false);
          (trace, String.length text))
    in
    if config.Scheduler.graphs <> [] then
      Span.with_ "graph.compose" (fun () ->
          List.iter (fun g -> ignore (Graph.to_source g ~n:24 : string)) Graph.standard);
    (* fleet construction and arena warm-up: the first requests of the
       first sub-trace through a fleet of their own *)
    let t0 = fst (List.hd traces) in
    let head = List.filteri (fun i _ -> i < 100) t0.Trace.requests in
    ignore (Scheduler.replay ~config { t0 with Trace.requests = head } : Scheduler.report);
    (Array.of_list (List.map fst traces), List.fold_left (fun acc (_, b) -> acc + b) 0 traces)
  in
  let setup_s, (traces, codec_bytes) = setup_median (if smoke then 1 else 5) setup in
  let count = spec.count in
  let first = Array.make subtraces None and oracle_first = Array.make subtraces [] in
  let replay_times = Array.make subtraces [] and oracle_times = ref [] in
  let raw_replays = ref [] and raw_oracles = ref [] in
  let round r =
    let j = r mod subtraces in
    let trace = traces.(j) in
    acct.attempted <- acct.attempted + count;
    (* every replay starts from a collected heap, whatever the previous
       one left behind: its fleet holds tens of MB of platform memory *)
    Gc.full_major ();
    let report, dt, raw =
      timed ~ops:count (fun () ->
          Span.with_ "scheduler.replay" (fun () -> Scheduler.replay ~config trace))
    in
    replay_times.(j) <- dt :: replay_times.(j);
    raw_replays := raw :: !raw_replays;
    let served =
      List.length (List.filter Telemetry.served (Telemetry.records report.Scheduler.telemetry))
    in
    acct.failed <- acct.failed + (count - served);
    check
      (Printf.sprintf "round %d: every request completes on the fleet" r)
      (Scheduler.completed report = count);
    (match first.(j) with
    | None -> first.(j) <- Some report
    | Some r0 ->
        check
          (Printf.sprintf "round %d: the replay repeats exactly" r)
          (fingerprint r0 = fingerprint report));
    let golden =
      List.map
        (fun (profile : Backend.profile) ->
          let cls = Backend.class_name profile.Backend.cls in
          Gc.full_major ();
          let g, dt, raw =
            timed ~ops:count (fun () ->
                Span.with_ ("oracle." ^ cls ^ ".replay") (fun () ->
                    Scheduler.replay ~config:(Scheduler.golden_config ~profile config) trace))
          in
          let d = Span.with_ "oracle.divergence" (fun () -> Scheduler.divergence report g) in
          check (Printf.sprintf "round %d: %s golden divergence is 0" r cls) (d = 0);
          check
            (Printf.sprintf "round %d: %s golden completes every request" r cls)
            (Scheduler.completed g = count);
          (g, dt, raw))
        golden_profiles
    in
    if oracle_first.(j) = [] then oracle_first.(j) <- List.map (fun (g, _, _) -> g) golden;
    oracle_times := sum (List.map (fun (_, dt, _) -> dt) golden) :: !oracle_times;
    raw_oracles := sum (List.map (fun (_, _, raw) -> raw) golden) :: !raw_oracles;
    if not smoke then
      Printf.eprintf "round %d: fleet replay %.3f s (raw %.3f), golden replays %.3f s (raw %.3f)\n%!"
        r dt raw (List.hd !oracle_times) (List.hd !raw_oracles)
  in
  let nrounds = rounds ~seconds ~cycle:subtraces round in
  let peak_mb = peak_heap_mb () in
  let reports = Array.to_list (Array.map Option.get first) in
  let records = List.concat_map completed_records reports in
  let speedups, gains = spot_check spec records in
  let capacity_rps = capacity ~seed spec in
  let ops = float_of_int (subtraces * count) in
  let ngolden = float_of_int (List.length golden_profiles) in
  let latencies =
    List.concat_map
      (fun (r : Scheduler.report) ->
        List.filter_map
          (fun rc ->
            if Telemetry.served rc then Some (float_of_int (Telemetry.latency_ps rc) /. 1e6)
            else None)
          (Telemetry.records r.Scheduler.telemetry))
      reports
  in
  let energy =
    sum
      (List.concat_map
         (fun (r : Scheduler.report) ->
           List.map (fun d -> d.Scheduler.dev_energy_j) r.Scheduler.devices)
         reports)
  in
  let all_replays = List.concat (Array.to_list replay_times) in
  let host_per_s times = median (List.map (fun t -> float_of_int count /. t) times) in
  let oracle_per_s times = median (List.map (fun t -> ngolden *. float_of_int count /. t) times) in
  let e2e =
    [
      ("host_ops_per_s", host_per_s all_replays, "1/s");
      ("oracle_ops_per_s", oracle_per_s !oracle_times, "1/s");
      ("sim_speedup_geomean", Stats.geomean speedups, "x");
      ("energy_gain_geomean", Stats.geomean gains, "x");
      ("sim_p50_us", Stats.percentile latencies ~p:50.0, "sim-us");
      ("sim_p99_us", Stats.percentile latencies ~p:99.0, "sim-us");
      ("sim_capacity_rps", capacity_rps, "sim-1/s");
      ( "write_kb_per_op",
        sum (List.map (fun r -> float_of_int (write_bytes r)) reports) /. 1000.0 /. ops,
        "KB" );
      ("energy_uj_per_op", 1e6 *. energy /. ops, "uJ");
    ]
  in
  let layers =
    if not !Span.enabled then []
    else begin
      (* the layer figures describe sub-trace 0 *)
      let report = List.hd reports and trace = traces.(0) in
      let t = report.Scheduler.telemetry in
      let fcount = float_of_int count in
      Span.with_ "telemetry.report" (fun () ->
          ignore (Telemetry.summary t : Telemetry.summary);
          ignore (Telemetry.windows t : Telemetry.window list);
          ignore (pct report 50.0 +. pct report 99.0 : float);
          ignore (Telemetry.class_summary t : (string * Telemetry.class_counts) list));
      (match config.Scheduler.admission with
      | Some policy ->
          let a = Admission.create policy in
          Span.with_ "admission.admit" (fun () ->
              List.iter
                (fun (q : Trace.request) ->
                  ignore
                    (Admission.admit a ~now_ps:q.Trace.arrival_ps ~queue_len:0
                       ~capacity:config.Scheduler.queue_capacity q
                      : Admission.verdict))
                trace.Trace.requests)
      | None -> ());
      (* the replay and its direct re-execution back to back *)
      let replay_s =
        let t0 = now () in
        ignore (Scheduler.replay ~config trace : Scheduler.report);
        now () -. t0
      in
      let devices = direct spec report in
      let direct_s =
        sum (Span.durations "kernel_cache.lookup")
        +. sum
             (List.concat_map
                (fun (p : Backend.profile) -> Span.durations ("device." ^ p.Backend.name ^ ".run"))
                [ Backend.pcm; Backend.digital; Backend.dual ])
      in
      let records = Telemetry.records t in
      let batches =
        List.sort_uniq compare (List.filter_map (fun rc -> rc.Telemetry.batch) records)
      in
      let graph_done =
        List.filter
          (fun (rc : Telemetry.record) ->
            List.mem_assoc rc.Telemetry.request.Trace.kernel graph_benches)
          (completed_records report)
      in
      let resident = List.filter (fun rc -> rc.Telemetry.write_bytes = 0) graph_done in
      let oracle_writes =
        sum (List.map (fun g -> float_of_int (write_bytes g)) oracle_first.(0))
      in
      raw_layers ~host:(host_per_s !raw_replays) ~oracle:(oracle_per_s !raw_oracles)
      @ devices
      @ [
          ("kernel_cache.lookup_us", 1e6 *. median (Span.durations "kernel_cache.lookup"), "us");
          ("kernel_cache.hits", float_of_int report.Scheduler.cache.Kernel_cache.hits, "count");
          ("kernel_cache.misses", float_of_int report.Scheduler.cache.Kernel_cache.misses, "count");
          ("device.pcm.run_us", 1e6 *. median (Span.durations "device.pcm.run"), "us");
          ("device.digital.run_us", 1e6 *. median (Span.durations "device.digital.run"), "us");
          ("device.dual.run_us", 1e6 *. median (Span.durations "device.dual.run"), "us");
          ("scheduler.replay_s", replay_s, "s");
          ("scheduler.overhead_s", replay_s -. direct_s, "s");
          ("scheduler.batches", float_of_int (List.length batches), "count");
          ( "scheduler.mean_batch",
            float_of_int (List.length (completed_records report))
            /. float_of_int (max 1 (List.length batches)),
            "count" );
          ("scheduler.max_queue_depth", float_of_int (Telemetry.max_queue_depth t), "count");
          ("scheduler.conversions", float_of_int (List.length (Telemetry.conversions t)), "count");
          ( "scheduler.calibrations",
            float_of_int (List.length report.Scheduler.calibrations),
            "count" );
          ("oracle.pcm.replay_s", median (Span.durations "oracle.pcm.replay"), "s");
          ("oracle.digital.replay_s", median (Span.durations "oracle.digital.replay"), "s");
          ("oracle.divergence_ms", span_ms "oracle.divergence", "ms");
          ("oracle.write_kb_per_op", oracle_writes /. 1000.0 /. (ngolden *. fcount), "KB");
          ("telemetry.records", float_of_int (List.length records), "count");
          ("telemetry.report_ms", span_ms "telemetry.report", "ms");
          ("loadgen.generate_ms", span_ms "loadgen.generate", "ms");
          ("codec.encode_ms", span_ms "codec.encode", "ms");
          ("codec.decode_ms", span_ms "codec.decode", "ms");
          ("codec.bytes", float_of_int codec_bytes, "bytes");
          ("admission.admit_us", 1e6 *. sum (Span.durations "admission.admit") /. fcount, "us");
          ("graph.resident_hits", float_of_int (List.length resident), "count");
          ( "graph.resident_ratio",
            float_of_int (List.length resident) /. float_of_int (max 1 (List.length graph_done)),
            "ratio" );
          ("graph.compose_ms", span_ms "graph.compose", "ms");
        ]
    end
  in
  { e2e = common_e2e ~setup_s ~peak_mb @ e2e; layers = common_layers ~rounds:nrounds @ layers }

(* ---------- main ---------- *)

(* The metrics and units BENCHMARK.json declares, in its order; every
   run prints all of one list. A per-layer metric of a layer the
   workload does not exercise reads 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "1/s");
    ("oracle_ops_per_s", "1/s");
    ("alloc_kw_per_op", "kwords");
    ("peak_heap_mb", "MB");
    ("sim_speedup_geomean", "x");
    ("energy_gain_geomean", "x");
    ("sim_p50_us", "sim-us");
    ("sim_p99_us", "sim-us");
    ("sim_capacity_rps", "sim-1/s");
    ("write_kb_per_op", "KB");
    ("energy_uj_per_op", "uJ");
  ]

let per_layer =
  [
    ("flow.compile_ms", "ms");
    ("flow.run_host_ms", "ms");
    ("flow.run_cim_ms", "ms");
    ("sim.minst_per_host_s", "Minst/s");
    ("sim.roi_instructions", "count");
    ("sim.roi_cycles", "count");
    ("device.pcm.run_us", "us");
    ("device.digital.run_us", "us");
    ("device.dual.run_us", "us");
    ("device.abft_checks", "count");
    ("kernel_cache.lookup_us", "us");
    ("kernel_cache.hits", "count");
    ("kernel_cache.misses", "count");
    ("scheduler.replay_s", "s");
    ("scheduler.overhead_s", "s");
    ("scheduler.batches", "count");
    ("scheduler.mean_batch", "count");
    ("scheduler.max_queue_depth", "count");
    ("scheduler.conversions", "count");
    ("scheduler.calibrations", "count");
    ("oracle.pcm.replay_s", "s");
    ("oracle.digital.replay_s", "s");
    ("oracle.divergence_ms", "ms");
    ("oracle.write_kb_per_op", "KB");
    ("telemetry.records", "count");
    ("telemetry.report_ms", "ms");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_kw", "kwords");
    ("loadgen.generate_ms", "ms");
    ("codec.encode_ms", "ms");
    ("codec.decode_ms", "ms");
    ("codec.bytes", "bytes");
    ("admission.admit_us", "us");
    ("graph.resident_hits", "count");
    ("graph.resident_ratio", "ratio");
    ("graph.compose_ms", "ms");
    ("cimacc.launches", "count");
    ("cimacc.macs", "count");
    ("pcm.write_bytes", "bytes");
    ("trace.overhead_pct", "%");
    ("trace.spans", "count");
    ("gauge.sample_ms", "ms");
    ("raw.host_ops_per_s", "1/s");
    ("raw.oracle_ops_per_s", "1/s");
  ]

let workloads = [ "paper-fig6"; "serve-diurnal"; "graph-resident" ]

let run_workload name ~seed ~seconds ~smoke =
  match name with
  | "paper-fig6" -> paper_fig6 ~seed ~seconds ~smoke
  | "serve-diurnal" -> serve ~spec:(diurnal_spec ~smoke) ~seed ~seconds ~smoke
  | "graph-resident" -> serve ~spec:(graph_spec ~smoke) ~seed ~seconds ~smoke
  | other ->
      raise (Arg.Bad (Printf.sprintf "unknown workload %S (%s)" other (String.concat ", " workloads)))

(* the names and units of one metric list of BENCHMARK.json *)
let spec_list json key =
  match Tdo_util.Json.member key json with
  | Some l ->
      List.map
        (fun m ->
          let field k =
            Option.bind (Tdo_util.Json.member k m) Tdo_util.Json.to_string_opt
            |> Option.value ~default:""
          in
          (field "name", field "unit"))
        (Tdo_util.Json.to_list l)
  | None -> []

let select ~spec ~default metrics =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some (_, v, u) when u = unit -> (name, (if Float.is_finite v then v else 0.0), unit)
      | Some (_, _, u) -> failwith (Printf.sprintf "metric %s measured in %s, declared %s" name u unit)
      | None when default -> (name, 0.0, unit)
      | None -> failwith ("metric not measured: " ^ name))
    spec

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let smoke = ref false and spec = ref "" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " seconds-long shapes of the workloads (tests)");
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json whose metric lists the output must match");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its Chrome trace");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("--workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  (* host timings come from this one domain *)
  Pool.set_sequential (Some true);
  let traced = !trace = 1 in
  let metrics =
    if not traced then
      select ~spec:end_to_end ~default:false
        (run_workload !workload ~seed:!seed ~seconds:!seconds ~smoke:!smoke).e2e
    else begin
      (* untraced and traced cycles of rounds alternate: the difference in
         time per op of the timed calls is the tracing overhead *)
      tracing := true;
      Span.enabled := true;
      let o = run_workload !workload ~seed:!seed ~seconds:!seconds ~smoke:!smoke in
      let per_op (s, n) = s /. float_of_int (max 1 n) in
      let overhead = 100.0 *. ((per_op acct.traced /. per_op acct.plain) -. 1.0) in
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      let path = Filename.concat !out (!workload ^ ".trace.json") in
      Span.write_chrome_trace path;
      Printf.printf "per-layer spans of the traced rounds (Chrome trace: %s)\n" path;
      Span.print_table stdout;
      select ~spec:per_layer ~default:true
        (o.layers
        @ [
            ("trace.overhead_pct", overhead, "%");
            ("trace.spans", float_of_int (List.length !Span.spans), "count");
          ])
    end
  in
  if !spec <> "" then begin
    match Tdo_util.Json.of_file !spec with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok json ->
        let declared = spec_list json (if traced then "per_layer" else "end_to_end") in
        if declared <> List.map (fun (n, _, u) -> (n, u)) metrics then begin
          prerr_endline ("metric names or units differ from " ^ !spec);
          exit 2
        end
  end;
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %18.6g %s\n" n v u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (acct.bad = 0) acct.attempted acct.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
          metrics));
  exit (if acct.bad = 0 then 0 else 1)
