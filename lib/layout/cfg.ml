(* The layout engine's view of a control-flow (or call) graph: an array
   of weighted, sized nodes plus deduplicated weighted edges, all in int
   arrays.  Node ids are indices into [nodes]; the array order is the
   *original* layout, so the identity permutation scores the input
   layout.

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
  src : int array;
  dst : int array;
  count : int array;
      (* edge e runs src.(e) -> dst.(e) with weight count.(e); edges are
         deduplicated and sorted by count desc then (src, dst) asc — the
         deterministic hot-first order every greedy consumer wants *)
  out_first : int array;
  out : int array;
      (* node i's out-edges, in edge order: out.(k) for k from
         out_first.(i) to out_first.(i + 1) - 1 *)
}

let node_count t = Array.length t.nodes
let edge_count t = Array.length t.src
let size t i = t.nodes.(i).n_size
let count t i = t.nodes.(i).n_count
let label t i = t.nodes.(i).n_label

module Int_tbl = Hashtbl.Make (Int)

(* Build a graph.  Self-edges, non-positive counts and out-of-range
   endpoints are dropped; parallel edges are summed.  The edge sort is
   total (count desc, then (src, dst) asc), so downstream greedy loops
   are deterministic no matter what order edges arrive in. *)
let make ~nodes ?(entry = -1) edges =
  let n = Array.length nodes in
  (* each distinct (s, d) once, as the key s * n + d with its summed
     count; [at] finds a key's slot *)
  let len = List.length edges in
  let keys = Array.make len 0 and counts = Array.make len 0 in
  let u = ref 0 and at = Int_tbl.create len in
  List.iter
    (fun (s, d, c) ->
      if s <> d && c > 0 && s >= 0 && s < n && d >= 0 && d < n then
        let k = (s * n) + d in
        match Int_tbl.find_opt at k with
        | Some j -> counts.(j) <- counts.(j) + c
        | None ->
            Int_tbl.add at k !u;
            keys.(!u) <- k;
            counts.(!u) <- c;
            incr u)
    edges;
  (* edge order: count desc, then key asc *)
  let m = !u in
  let order = Array.init m Fun.id in
  Array.stable_sort
    (fun i j ->
      if counts.(i) <> counts.(j) then Int.compare counts.(j) counts.(i)
      else Int.compare keys.(i) keys.(j))
    order;
  (* out-edges: edge ids bucketed by source, in edge order *)
  let src = Array.make m 0 and dst = Array.make m 0 and count = Array.make m 0 in
  let out_first = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let i = order.(e) in
    src.(e) <- keys.(i) / n;
    dst.(e) <- keys.(i) mod n;
    count.(e) <- counts.(i);
    out_first.(src.(e) + 1) <- out_first.(src.(e) + 1) + 1
  done;
  for k = 1 to n do out_first.(k) <- out_first.(k) + out_first.(k - 1) done;
  let fill = Array.sub out_first 0 n and out = Array.make m 0 in
  for e = 0 to m - 1 do
    out.(fill.(src.(e))) <- e;
    fill.(src.(e)) <- fill.(src.(e)) + 1
  done;
  let entry = if entry >= 0 && entry < n then entry else -1 in
  { nodes; entry; src; dst; count; out_first; out }

(* The weight of edge [s] -> [d], or 0. *)
let weight t s d =
  let w = ref 0 in
  for k = t.out_first.(s) to t.out_first.(s + 1) - 1 do
    if t.dst.(t.out.(k)) = d then w := t.count.(t.out.(k))
  done;
  !w

(* The identity permutation: the layout the graph was built from. *)
let identity t = Array.init (node_count t) (fun i -> i)
