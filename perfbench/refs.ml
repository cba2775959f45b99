(* Reference results computed apart from the program: plain OCaml loops
   for the seven PolyBench kernels and the graph layers, evaluated in
   double precision with two running absolute error bounds per element.

   [eh] bounds a host-only build, which may differ from the exact result
   only by binary32 rounding: every product-sum of [depth] terms is
   allowed gamma(depth + 4) of its absolute magnitude, u = 2^-24. [ec]
   bounds an offloaded build, which also quantises both operands of
   every product-sum to the 8-bit scheme of [Tdo_linalg.Quant]. The
   scale is taken from the largest magnitude the program can hold for
   the whole operand array, which is at least the per-tile and
   per-vector maximum the accelerator quantises with, so the scheme's
   half-step bounds each quantised operand. Both bounds are derived from
   the schemes and the operands alone, never from an observed error.
   Errors of earlier statements propagate into later ones (2mm, 3mm,
   gesummv, mvt and the graph chains). *)

module Interp = Tdo_lang.Interp
module Mat = Tdo_linalg.Mat
module Quant = Tdo_linalg.Quant
module Graph = Tdo_graph.Graph

(* row-major [rows x cols]: values, host bound, offload bound *)
type arr = { v : float array; eh : float array; ec : float array; rows : int; cols : int }

let u32 = ldexp 1.0 (-24)

let gamma k =
  let ku = float_of_int k *. u32 in
  ku /. (1.0 -. ku)

let exact (a : Interp.arr) =
  let rows, cols =
    match a.Interp.dims with
    | [ r; c ] -> (r, c)
    | [ n ] -> (n, 1)
    | _ -> invalid_arg "Refs.exact: rank"
  in
  let z = Array.make (rows * cols) 0.0 in
  { v = Array.copy a.Interp.data; eh = z; ec = z; rows; cols }

let make ~rows ~cols =
  let z () = Array.make (rows * cols) 0.0 in
  { v = z (); eh = z (); ec = z (); rows; cols }

(* half a quantisation step of the 8-bit scheme covering every value an
   offloaded build may hold for [a] *)
let half_step a =
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs x +. a.ec.(i))) a.v;
  Quant.quantization_error_bound (Quant.scheme_for ~bits:8 ~max_abs:!m)

(* out.(o) <- alpha * sum_k a.(ia k) * b.(ib k) + beta * c.(o), with
   [ia k = a0 + k * sa] and [ib k = b0 + k * sb] *)
let dot ~qa ~qb ~depth ~alpha ~beta ?c ~out o a a0 sa b b0 sb =
  let s = ref 0.0 and mag = ref 0.0 and inh = ref 0.0 and inc = ref 0.0 and eq = ref 0.0 in
  for k = 0 to depth - 1 do
    let ia = a0 + (k * sa) and ib = b0 + (k * sb) in
    let av = a.v.(ia) and bv = b.v.(ib) in
    let aa = Float.abs av and ba = Float.abs bv in
    s := !s +. (av *. bv);
    mag := !mag +. (aa *. ba);
    let ah = a.eh.(ia) and bh = b.eh.(ib) and ac = a.ec.(ia) and bc = b.ec.(ib) in
    inh := !inh +. (aa *. bh) +. (ba *. ah) +. (ah *. bh);
    inc := !inc +. (aa *. bc) +. (ba *. ac) +. (ac *. bc);
    eq := !eq +. ((aa +. ac) *. qb) +. ((ba +. bc) *. qa) +. (qa *. qb)
  done;
  let cv, ch, cc =
    match c with Some c -> (c.v.(o), c.eh.(o), c.ec.(o)) | None -> (0.0, 0.0, 0.0)
  in
  let aa = Float.abs alpha and ab = Float.abs beta in
  let mag = (aa *. !mag) +. (ab *. Float.abs cv) and g = gamma (depth + 4) in
  let ph = (aa *. !inh) +. (ab *. ch) and pc = (aa *. (!inc +. !eq)) +. (ab *. cc) in
  out.v.(o) <- (alpha *. !s) +. (beta *. cv);
  out.eh.(o) <- ph +. (g *. (mag +. ph));
  out.ec.(o) <- pc +. (g *. (mag +. pc))

(* C = alpha * op(A) * op(B) + beta * C over square operands *)
let matmul ?(alpha = 1.0) ?(beta = 0.0) ?c ?(ta = false) ?(tb = false) a b =
  let n = a.rows in
  let qa = half_step a and qb = half_step b in
  let out = make ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let a0, sa = if ta then (i, n) else (i * n, 1) in
      let b0, sb = if tb then (j * n, 1) else (j, n) in
      dot ~qa ~qb ~depth:n ~alpha ~beta ?c ~out ((i * n) + j) a a0 sa b b0 sb
    done
  done;
  out

(* y = op(A) x (+ y0): the GEMV statements *)
let matvec ?(ta = false) ?y0 a x =
  let n = x.rows in
  let qa = half_step a and qb = half_step x in
  let out = make ~rows:n ~cols:1 in
  let beta = if y0 = None then 0.0 else 1.0 in
  for i = 0 to n - 1 do
    let a0, sa = if ta then (i, n) else (i * n, 1) in
    dot ~qa ~qb ~depth:n ~alpha:1.0 ~beta ?c:y0 ~out i a a0 sa x 0 1
  done;
  out

(* element-wise on the host: [alpha * a + beta * b], or [a * b] *)
let elementwise ~mul ?(alpha = 1.0) ?(beta = 1.0) a b =
  let out = make ~rows:a.rows ~cols:a.cols in
  Array.iteri
    (fun i av ->
      let bv = b.v.(i) in
      let bound ea eb =
        let prop, mag =
          if mul then
            ((Float.abs av *. eb) +. (Float.abs bv *. ea) +. (ea *. eb), Float.abs (av *. bv))
          else
            ( (Float.abs alpha *. ea) +. (Float.abs beta *. eb),
              Float.abs (alpha *. av) +. Float.abs (beta *. bv) )
        in
        prop +. (gamma 4 *. (mag +. prop))
      in
      out.v.(i) <- (if mul then av *. bv else (alpha *. av) +. (beta *. bv));
      out.eh.(i) <- bound a.eh.(i) b.eh.(i);
      out.ec.(i) <- bound a.ec.(i) b.ec.(i))
    a.v;
  out

(* 3x3 valid convolution: each output is a 9-term product-sum of [w]
   with a window of [img] (row stride n + 2) *)
let conv ~n img w =
  let qa = half_step w and qb = half_step img in
  let out = make ~rows:n ~cols:n in
  let win = make ~rows:9 ~cols:1 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to 8 do
        let src = ((i + (k / 3)) * (n + 2)) + j + (k mod 3) in
        win.v.(k) <- img.v.(src);
        win.eh.(k) <- img.eh.(src);
        win.ec.(k) <- img.ec.(src)
      done;
      dot ~qa ~qb ~depth:9 ~alpha:1.0 ~beta:0.0 ~out ((i * n) + j) w 0 1 win 0 1
    done
  done;
  out

let find args name =
  match List.assoc_opt name args with
  | Some (Interp.Varray a) -> exact a
  | _ -> invalid_arg ("Refs: missing array argument " ^ name)

let scalar args name =
  match List.assoc_opt name args with
  | Some (Interp.Vfloat f) -> f
  | Some (Interp.Vint i) -> float_of_int i
  | _ -> invalid_arg ("Refs: missing scalar argument " ^ name)

(* Expected outputs of one PolyBench kernel, in its readback order, from
   argument bindings the program has not touched. *)
let polybench ~name ~n args =
  let m = find args and s = scalar args in
  match name with
  | "gemm" -> [ matmul ~alpha:(s "alpha") ~beta:(s "beta") ~c:(m "C") (m "A") (m "B") ]
  | "2mm" ->
      let tmp = matmul ~alpha:(s "alpha") (m "A") (m "B") in
      [ matmul ~beta:(s "beta") ~c:(m "D") tmp (m "C") ]
  | "3mm" -> [ matmul (matmul (m "A") (m "B")) (matmul (m "C") (m "D")) ]
  | "conv" -> [ conv ~n (m "img") (m "w") ]
  | "gesummv" ->
      let tmp = matvec (m "A") (m "x") and y = matvec (m "B") (m "x") in
      [ elementwise ~mul:false ~alpha:(s "alpha") ~beta:(s "beta") tmp y ]
  | "bicg" -> [ matvec ~ta:true (m "A") (m "r"); matvec (m "A") (m "p") ]
  | "mvt" -> [ matvec ~y0:(m "x1") (m "A") (m "y1"); matvec ~ta:true ~y0:(m "x2") (m "A") (m "y2") ]
  | other -> invalid_arg ("Refs.polybench: no reference for " ^ other)

(* Expected outputs of a graph program: its layers in topological
   order, outputs in [Graph.graph_outputs] order. *)
let graph (g : Graph.t) args =
  let env = Hashtbl.create 16 in
  List.iter (fun (name, _) -> Hashtbl.replace env name (find args name)) args;
  let layers = Array.of_list g.Graph.layers in
  List.iter
    (fun i ->
      let l = layers.(i) in
      let arg k = Hashtbl.find env (List.nth l.Graph.ins k) in
      let out =
        match l.Graph.op with
        | Graph.Dense -> matvec (arg 0) (arg 1)
        | Graph.Add -> elementwise ~mul:false (arg 0) (arg 1)
        | Graph.Mul -> elementwise ~mul:true (arg 0) (arg 1)
      in
      Hashtbl.replace env l.Graph.out out)
    (Graph.topo_order g);
  List.map (Hashtbl.find env) (Graph.graph_outputs g)

(* Elements of [got] outside [expect]'s host ([cim = false]) or offload
   bound: 0 means the output is correct. *)
let violations ~cim ~expect (got : Mat.t list) =
  if List.length expect <> List.length got then max_int
  else
    List.fold_left2
      (fun acc r m ->
        if Mat.rows m <> r.rows || Mat.cols m <> r.cols then acc + (r.rows * r.cols)
        else begin
          let bad = ref 0 in
          let e = if cim then r.ec else r.eh in
          for i = 0 to r.rows - 1 do
            for j = 0 to r.cols - 1 do
              let o = (i * r.cols) + j in
              if not (Float.abs (Mat.get m i j -. r.v.(o)) <= e.(o)) then incr bad
            done
          done;
          acc + !bad
        end)
      0 expect got
