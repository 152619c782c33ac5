(* Weighted dynamic call graph for function reordering.

   With LBR profiles, edge weights come straight from recorded call
   branches (from one function into offset 0 of another).  Without LBRs
   the paper's §5.3 fallback applies: walk the binary's direct calls and
   weight each caller→callee edge by the samples observed in the caller's
   enclosing code — indirect calls are invisible in that mode.

   The graph is the layout engine's [Cfg.t] over functions, numbered in
   name order (the order every HFSort tie-break follows): a node's label
   is the function's name, its size the function's bytes and its count
   the function's samples.  An edge's weight is the call weight, summed
   saturating at [max_int] like every other count; self-calls are
   dropped. *)

module Cfg = Bolt_layout.Cfg
module Fdata = Bolt_profile.Fdata

type t = Cfg.t

(* [funcs] sorted by their [name], a name's first entry kept: the node
   order. *)
let by_name name funcs =
  let fs = Array.of_list funcs in
  Array.stable_sort (fun a b -> String.compare (name a) (name b)) fs;
  let keep = ref [] in
  for i = Array.length fs - 1 downto 0 do
    if i = 0 || not (String.equal (name fs.(i - 1)) (name fs.(i))) then
      keep := fs.(i) :: !keep
  done;
  Array.of_list !keep

(* The graph over the nodes [funcs] (by [by_name]) with [samples] per
   node; [calls] lists distinct (caller, callee) pairs by node id with
   their weights. *)
let make ~(funcs : (string * int) array) ~samples calls : t =
  Cfg.make
    ~nodes:
      (Array.mapi
         (fun i (name, size) ->
           { Cfg.n_label = name; n_size = size; n_count = samples.(i) })
         funcs)
    calls

(* The node named [name], or -1. *)
let find (g : t) name =
  let lo = ref 0 and hi = ref (Cfg.node_count g) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (Cfg.label g mid) name < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Cfg.node_count g && Cfg.label g !lo = name then !lo else -1

let samples g name = match find g name with -1 -> 0 | i -> Cfg.count g i

let weight g caller callee =
  match (find g caller, find g callee) with
  | -1, _ | _, -1 -> 0
  | a, b -> Cfg.weight g a b

(* The hottest caller of each node, or -1: the source of its first
   in-edge in edge order, so equal weights break towards the smaller
   caller id, which is the smaller name. *)
let hottest_caller (g : t) =
  let best = Array.make (Cfg.node_count g) (-1) in
  for e = Cfg.edge_count g - 1 downto 0 do
    best.(g.Cfg.dst.(e)) <- g.Cfg.src.(e)
  done;
  best

(* The graph over the nodes [funcs] ((name, size), a name's first entry
   making its node) with [samples] per name; [calls] lists (caller,
   callee, weight) by name, and the positive weights of the calls
   between two nodes, summed per pair, become an edge. *)
let of_calls ~funcs ~samples calls =
  let funcs = by_name fst funcs in
  let n = Array.length funcs in
  let id = Hashtbl.create (n * 2 + 1) in
  Array.iteri (fun i (name, _) -> Hashtbl.replace id name i) funcs;
  let w = Cfg.Int_tbl.create 1024 in
  List.iter
    (fun (a, b, c) ->
      match (Hashtbl.find_opt id a, Hashtbl.find_opt id b) with
      | Some a, Some b when c > 0 -> (
          let k = (a * n) + b in
          match Cfg.Int_tbl.find_opt w k with
          | Some r -> r := Fdata.sat_add_int !r c
          | None -> Cfg.Int_tbl.add w k (ref c))
      | _ -> ())
    calls;
  make ~funcs
    ~samples:(Array.map (fun (name, _) -> samples name) funcs)
    (Cfg.Int_tbl.fold (fun k r acc -> (k / n, k mod n, !r) :: acc) w [])

(* Each function's profile events, clamped to an int. *)
let events prof =
  let events = Fdata.func_events prof in
  fun name ->
    match Hashtbl.find_opt events name with
    | Some c -> Fdata.clamp_int c
    | None -> 0

(* Build from an LBR profile: calls are branches landing at offset 0 of
   another function. *)
let of_profile ~(funcs : (string * int) list) (prof : Fdata.t) : t =
  of_calls ~funcs ~samples:(events prof)
    (List.filter_map
       (fun (b : Fdata.branch) ->
         if b.br_from_func <> b.br_to_func && b.br_to_off = 0 then
           Some (b.br_from_func, b.br_to_func, Fdata.clamp_int b.br_count)
         else None)
       prof.branches)

(* §5.3 fallback: no LBR.  [direct_calls] lists the binary's static call
   sites as (caller, offset-in-caller, callee); each edge gets the IP
   samples recorded near the call site (same function, any offset —
   approximated by the caller's sample count scaled per site). *)
let of_samples_and_calls ~(funcs : (string * int) list)
    ~(direct_calls : (string * int * string) list) (prof : Fdata.t) : t =
  (* samples per (func, off) for call-site weighting *)
  let site_w = Hashtbl.create 1024 in
  List.iter
    (fun (s : Fdata.sample) ->
      Hashtbl.replace site_w (s.sm_func, s.sm_off)
        (Fdata.sat_add_int (Fdata.clamp_int s.sm_count)
           (try Hashtbl.find site_w (s.sm_func, s.sm_off) with Not_found -> 0)))
    prof.samples;
  of_calls ~funcs ~samples:(events prof)
    (List.map
       (fun (caller, off, callee) ->
         (* weight: samples within a small window after the call site *)
         let w = ref 0 in
         for o = off to off + 16 do
           match Hashtbl.find_opt site_w (caller, o) with
           | Some c -> w := Fdata.sat_add_int !w c
           | None -> ()
         done;
         (caller, callee, max 1 !w))
       direct_calls)
