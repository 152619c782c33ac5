(* The ExtTSP objective (Newell & Pupyrev, "Improved Basic Block
   Reordering").  An edge (s, d, w) placed at addresses [src_end] (end
   of s) and [dst] (start of d) contributes

     w            when d falls through  (dst = src_end)
     0.1·w·(1 − dist/1024)   for a short forward jump (dist < 1024)
     0.1·w·(1 − dist/640)    for a short backward jump (dist < 640)

   and nothing otherwise.  Maximising the sum rewards fall-throughs
   first but still credits layouts that keep branch targets within a
   cache line or two, which plain maximum-fall-through chaining
   ignores. *)

let fallthrough_weight = 1.0
let forward_weight = 0.1
let forward_distance = 1024
let backward_weight = 0.1
let backward_distance = 640

let score_edge ~src_end ~dst count =
  let w = float_of_int count in
  if dst = src_end then fallthrough_weight *. w
  else if dst > src_end then begin
    let d = dst - src_end in
    if d < forward_distance then
      forward_weight *. w
      *. (1.0 -. (float_of_int d /. float_of_int forward_distance))
    else 0.0
  end
  else begin
    let d = src_end - dst in
    if d < backward_distance then
      backward_weight *. w
      *. (1.0 -. (float_of_int d /. float_of_int backward_distance))
    else 0.0
  end

(* Score a full layout: [order] is a permutation of the graph's nodes
   (or a subset — edges with an unplaced endpoint count zero). *)
let score (cfg : Cfg.t) (order : int array) =
  let n = Cfg.node_count cfg in
  let addr = Array.make n (-1) in
  let a = ref 0 in
  Array.iter
    (fun b ->
      addr.(b) <- !a;
      a := !a + Cfg.size cfg b)
    order;
  let total = ref 0.0 in
  Array.iter
    (fun b ->
      let src_end = addr.(b) + Cfg.size cfg b in
      for k = cfg.Cfg.out_first.(b) to cfg.Cfg.out_first.(b + 1) - 1 do
        let e = cfg.Cfg.out.(k) in
        let d = cfg.Cfg.dst.(e) in
        if addr.(d) >= 0 then
          total := !total +. score_edge ~src_end ~dst:addr.(d) cfg.Cfg.count.(e)
      done)
    order;
  !total

(* The fall-through component alone: summed counts of edges whose
   destination is laid out immediately after their source.  A function's
   estimated taken-branch count is its total branch weight minus exactly
   this, so comparing layouts by [fallthroughs] compares their taken
   branches with the sign flipped. *)
let fallthroughs (cfg : Cfg.t) (order : int array) =
  let next = Array.make (Cfg.node_count cfg) (-1) in
  let last = Array.length order - 1 in
  Array.iteri (fun i b -> if i < last then next.(b) <- order.(i + 1)) order;
  let ft = ref 0 in
  for e = 0 to Cfg.edge_count cfg - 1 do
    if next.(cfg.Cfg.src.(e)) = cfg.Cfg.dst.(e) then ft := !ft + cfg.Cfg.count.(e)
  done;
  !ft
