(* Weighted dynamic call graph for function reordering.

   With LBR profiles, edge weights come straight from recorded call
   branches (from one function into offset 0 of another).  Without LBRs
   the paper's §5.3 fallback applies: walk the binary's direct calls and
   weight each caller→callee edge by the samples observed in the caller's
   enclosing code — indirect calls are invisible in that mode. *)

type node = { n_name : string; n_size : int; mutable n_samples : int }

type t = {
  nodes : (string, node) Hashtbl.t;
  edges : (string * string, int ref) Hashtbl.t; (* caller, callee -> weight *)
}

let create () = { nodes = Hashtbl.create 256; edges = Hashtbl.create 1024 }

let add_node g ~name ~size =
  if not (Hashtbl.mem g.nodes name) then
    Hashtbl.replace g.nodes name { n_name = name; n_size = size; n_samples = 0 }

let node g name = Hashtbl.find_opt g.nodes name

let add_samples g name c =
  match Hashtbl.find_opt g.nodes name with
  | Some n -> n.n_samples <- n.n_samples + c
  | None -> ()

let add_edge g caller callee w =
  if w > 0 && Hashtbl.mem g.nodes caller && Hashtbl.mem g.nodes callee then
    match Hashtbl.find_opt g.edges (caller, callee) with
    | Some r -> r := !r + w
    | None -> Hashtbl.add g.edges (caller, callee) (ref w)

(* The hottest caller of each function; equal weights break towards the
   lexicographically smaller caller so the result does not depend on
   hashtable iteration order. *)
let hottest_caller g =
  let best = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (caller, callee) w ->
      if caller <> callee then
        match Hashtbl.find_opt best callee with
        | Some (bc, bw) when bw > !w || (bw = !w && bc <= caller) -> ()
        | _ -> Hashtbl.replace best callee (caller, !w))
    g.edges;
  best

(* The one builder of an LBR call graph.  [nodes] lists (name, size,
   samples); a name's first entry makes its node.  [calls] lists
   (caller, callee, weight) for distinct pairs, each weight the sum of
   its records' positive counts, in the order the pairs' first such
   record came; a call between two nodes becomes an edge. *)
let build ~(nodes : (string * int * int) list)
    ~(calls : (string * string * int) list) : t =
  let g = create () in
  List.iter
    (fun (name, size, samples) ->
      if not (Hashtbl.mem g.nodes name) then
        Hashtbl.replace g.nodes name
          { n_name = name; n_size = size; n_samples = samples })
    nodes;
  List.iter
    (fun (caller, callee, w) ->
      if Hashtbl.mem g.nodes caller && Hashtbl.mem g.nodes callee then
        Hashtbl.add g.edges (caller, callee) (ref w))
    calls;
  g

(* Build from an LBR profile: calls are branches landing at offset 0 of
   another function. *)
let of_profile ~(funcs : (string * int) list) (prof : Bolt_profile.Fdata.t) : t =
  let events = Bolt_profile.Fdata.func_events prof in
  let samples name =
    match Hashtbl.find_opt events name with
    | Some c -> Bolt_profile.Fdata.clamp_int c
    | None -> 0
  in
  let weights = Hashtbl.create 1024 and calls = ref [] in
  List.iter
    (fun (b : Bolt_profile.Fdata.branch) ->
      let w = Bolt_profile.Fdata.clamp_int b.br_count in
      if b.br_from_func <> b.br_to_func && b.br_to_off = 0 && w > 0 then
        let key = (b.br_from_func, b.br_to_func) in
        match Hashtbl.find_opt weights key with
        | Some r -> r := !r + w
        | None ->
            let r = ref w in
            Hashtbl.add weights key r;
            calls := (key, r) :: !calls)
    prof.branches;
  build
    ~nodes:(List.map (fun (name, size) -> (name, size, samples name)) funcs)
    ~calls:(List.rev_map (fun ((caller, callee), r) -> (caller, callee, !r)) !calls)

(* §5.3 fallback: no LBR.  [direct_calls] lists the binary's static call
   sites as (caller, offset-in-caller, callee); each edge gets the IP
   samples recorded near the call site (same function, any offset —
   approximated by the caller's sample count scaled per site). *)
let of_samples_and_calls ~(funcs : (string * int) list)
    ~(direct_calls : (string * int * string) list) (prof : Bolt_profile.Fdata.t) : t =
  let g = create () in
  List.iter (fun (name, size) -> add_node g ~name ~size) funcs;
  let events = Bolt_profile.Fdata.func_events prof in
  Hashtbl.iter (fun name c -> add_samples g name (Bolt_profile.Fdata.clamp_int c)) events;
  (* samples per (func, off) for call-site weighting *)
  let site_w = Hashtbl.create 1024 in
  List.iter
    (fun (s : Bolt_profile.Fdata.sample) ->
      Hashtbl.replace site_w (s.sm_func, s.sm_off)
        (Bolt_profile.Fdata.clamp_int s.sm_count
        + try Hashtbl.find site_w (s.sm_func, s.sm_off) with Not_found -> 0))
    prof.samples;
  List.iter
    (fun (caller, off, callee) ->
      (* weight: samples within a small window after the call site *)
      let w = ref 0 in
      for o = off to off + 16 do
        match Hashtbl.find_opt site_w (caller, o) with
        | Some c -> w := !w + c
        | None -> ()
      done;
      add_edge g caller callee (max 1 !w))
    direct_calls;
  g
