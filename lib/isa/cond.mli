(** Condition codes for conditional branches.

    The simulator materialises comparison flags as the three-way ordering
    of the two operands of the last [cmp]/[test]; a condition code then
    consults that ordering. *)

type t = Eq | Ne | Lt | Le | Gt | Ge

val all : t list

val to_int : t -> int

(** Inverse of [to_int]; raises [Invalid_argument] outside [0..5]. *)
val of_int : int -> t

(** The condition that holds exactly when this one does not — what
    fixup-branches uses to flip a branch's polarity when the layout makes
    the other side the fall-through. *)
val invert : t -> t

(** [holds c ord] decides the condition given [ord = compare a b]. *)
val holds : t -> int -> bool

val name : t -> string
