(* The layout engine's view of a control-flow (or call) graph: an array
   of weighted, sized nodes plus deduplicated weighted edges.  Node ids
   are indices into [nodes]; the array order is the *original* layout,
   so the identity permutation scores the input layout.

   The same structure serves all three layers: basic blocks inside a
   function (lib/core, lib/minic) and whole functions in the call graph
   (lib/hfsort, with [entry = -1]). *)

type node = {
  n_label : string;  (* block label / function name, for reporting *)
  n_size : int;      (* bytes (or a byte proxy) occupied by the node *)
  n_count : int;     (* execution count / samples *)
}

type t = {
  nodes : node array;
  entry : int;  (* index of the entry node, or -1 when order-free *)
  edges : (int * int * int) array;
      (* (src, dst, count), deduplicated, sorted by count desc then
         (src, dst) asc — the deterministic hot-first order every greedy
         consumer wants *)
  succ : (int * int) list array;  (* per-node out-edges, same sort *)
}

let node_count t = Array.length t.nodes
let size t i = t.nodes.(i).n_size
let count t i = t.nodes.(i).n_count
let label t i = t.nodes.(i).n_label

(* Build a graph.  Self-edges, non-positive counts and out-of-range
   endpoints are dropped; parallel edges are summed.  The edge sort is
   total (count desc, then (src, dst) asc), so downstream greedy loops
   are deterministic no matter what order edges arrive in. *)
let make ~nodes ?(entry = -1) edges =
  let n = Array.length nodes in
  let tbl = Hashtbl.create (List.length edges * 2 + 1) in
  List.iter
    (fun (s, d, c) ->
      if s <> d && c > 0 && s >= 0 && s < n && d >= 0 && d < n then
        match Hashtbl.find_opt tbl (s, d) with
        | Some r -> r := !r + c
        | None -> Hashtbl.add tbl (s, d) (ref c))
    edges;
  let edges =
    Hashtbl.fold (fun (s, d) c acc -> (s, d, !c) :: acc) tbl []
    |> List.sort (fun (s1, d1, a) (s2, d2, b) ->
           if a <> b then Int.compare b a
           else if s1 <> s2 then Int.compare s1 s2
           else Int.compare d1 d2)
    |> Array.of_list
  in
  let succ = Array.make (max n 1) [] in
  Array.iter (fun (s, d, c) -> succ.(s) <- (d, c) :: succ.(s)) edges;
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  let entry = if entry >= 0 && entry < n then entry else -1 in
  { nodes; entry; edges; succ }

let total_size t = Array.fold_left (fun a n -> a + n.n_size) 0 t.nodes

(* The identity permutation: the layout the graph was built from. *)
let identity t = Array.init (node_count t) (fun i -> i)
