(* Spans and counts recorded around the benchmark's calls into the
   library's public functions. Spans (name, start, end, parent) are kept
   in memory and written out when the run ends, as a Chrome trace and as
   a per-layer table with self time (a span's duration minus the part
   its child spans cover). Disabled, [with_] is one branch. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; name; parent; start; stop = Unix.gettimeofday () } :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* durations in seconds of every closed span called [name] *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) !spans

type row = { layer : string; calls : int; total_s : float; self_s : float }

let table () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) +. (s.stop -. s.start)))
    !spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let r =
        Option.value
          ~default:{ layer = s.name; calls = 0; total_s = 0.0; self_s = 0.0 }
          (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name
        { r with calls = r.calls + 1; total_s = r.total_s +. d; self_s = r.self_s +. self })
    !spans;
  List.sort
    (fun a b -> compare b.total_s a.total_s)
    (Hashtbl.fold (fun _ r acc -> r :: acc) rows [])

let print_table oc =
  Printf.fprintf oc "%-28s %8s %12s %12s\n" "layer" "calls" "total ms" "self ms";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-28s %8d %12.3f %12.3f\n" r.layer r.calls (1e3 *. r.total_s)
        (1e3 *. r.self_s))
    (table ())

let write_chrome_trace path =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name
        (1e6 *. (s.start -. t0))
        (1e6 *. (s.stop -. s.start))
        s.id s.parent)
    (List.rev !spans);
  output_string oc "\n]\n";
  close_out oc
