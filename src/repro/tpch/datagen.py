"""Deterministic, dbgen-like TPC-H data generator.

Row counts scale linearly with the scale factor exactly as in dbgen
(supplier 10k·SF, part 200k·SF, partsupp 4/part, customer 150k·SF, orders
10/customer, lineitem 1-7/order; nation/region fixed).  The value domains
reproduce everything the paper's nine sublink queries predicate on:

* brands ``Brand#xy``, 150 part types from the 6x5x5 word grid, the 40
  containers, part names from the color-word list (Q20's ``forest%``),
* order/commit/ship/receipt date arithmetic (Q4's late orders, Q21's late
  line items),
* supplier comments occasionally containing ``Customer ... Complaints``
  (Q16's NOT IN),
* customer phone numbers with country codes (Q22),
* account balances, supply costs, quantities and prices in dbgen's ranges.

Generation is seeded and fully deterministic: the same ``(scale, seed)``
always yields byte-identical tables.
"""

from __future__ import annotations

import random
from datetime import date, timedelta
from typing import Iterator

from ..api import Connection
from .schema import create_tpch_tables

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

_TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                    "PROMO"]
_TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                    "BRUSHED"]
_TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

_CONTAINER_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
_CONTAINER_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]

_COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
    "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
    "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory",
    "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
    "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty",
    "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale",
    "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
    "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
    "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan",
    "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
]

_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
               "5-LOW"]
_SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_SHIP_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
                      "TAKE BACK RETURN"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
             "HOUSEHOLD"]
_COMMENT_WORDS = [
    "carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
    "requests", "packages", "accounts", "instructions", "foxes", "ideas",
    "pinto", "beans", "theodolites", "platelets", "dependencies", "excuses",
    "asymptotes", "courts", "dolphins", "multipliers", "sauternes",
]

_START_DATE = date(1992, 1, 1)
_ORDER_DATE_SPAN = 2406  # dbgen: 1992-01-01 .. 1998-08-02

# dbgen base cardinalities at SF = 1
_BASE_ROWS = {
    "supplier": 10_000,
    "part": 200_000,
    "customer": 150_000,
    "orders": 1_500_000,
}


def scale_rows(scale: float) -> dict[str, int]:
    """Row counts for each independently sized table at *scale*."""
    return {
        "supplier": max(2, round(_BASE_ROWS["supplier"] * scale)),
        "part": max(4, round(_BASE_ROWS["part"] * scale)),
        "customer": max(3, round(_BASE_ROWS["customer"] * scale)),
        "orders": max(10, round(_BASE_ROWS["orders"] * scale)),
    }


def _iso(day: date) -> str:
    return day.isoformat()


class TPCHGenerator:
    """Generates one deterministic TPC-H instance."""

    def __init__(self, scale: float = 0.001, seed: int = 0):
        self.scale = scale
        self.seed = seed
        self.rows = scale_rows(scale)
        self.rng = random.Random(f"tpch-{seed}-{round(scale * 1_000_000)}")

    # -- individual tables -----------------------------------------------------

    def regions(self) -> Iterator[tuple]:
        for key, name in enumerate(_REGIONS):
            yield (key, name, self._comment())

    def nations(self) -> Iterator[tuple]:
        for key, (name, region) in enumerate(_NATIONS):
            yield (key, name, region, self._comment())

    def suppliers(self) -> Iterator[tuple]:
        for key in range(1, self.rows["supplier"] + 1):
            nation = self.rng.randrange(len(_NATIONS))
            comment = self._comment()
            # dbgen plants Customer...Complaints in ~0.05% of comments; at
            # our scales that would never fire, so use 5%.
            if self.rng.random() < 0.05:
                comment = f"{comment} Customer insults Complaints"
            yield (
                key,
                f"Supplier#{key:09d}",
                self._address(),
                nation,
                self._phone(nation),
                round(self.rng.uniform(-999.99, 9999.99), 2),
                comment,
            )

    def parts(self) -> Iterator[tuple]:
        for key in range(1, self.rows["part"] + 1):
            name = " ".join(self.rng.sample(_COLORS, 5))
            mfgr = self.rng.randint(1, 5)
            brand = f"Brand#{mfgr}{self.rng.randint(1, 5)}"
            type_ = " ".join((
                self.rng.choice(_TYPE_SYLLABLE_1),
                self.rng.choice(_TYPE_SYLLABLE_2),
                self.rng.choice(_TYPE_SYLLABLE_3)))
            size = self.rng.randint(1, 50)
            container = (f"{self.rng.choice(_CONTAINER_1)} "
                         f"{self.rng.choice(_CONTAINER_2)}")
            price = round(90000 + (key % 200001) / 10 + 100 * (key % 1000),
                          2) / 100
            yield (key, name, f"Manufacturer#{mfgr}", brand, type_, size,
                   container, price, self._comment())

    def partsupps(self) -> Iterator[tuple]:
        suppliers = self.rows["supplier"]
        for part in range(1, self.rows["part"] + 1):
            for copy in range(4):
                supp = ((part + (copy * ((suppliers // 4) + 1))) %
                        suppliers) + 1
                yield (
                    part,
                    supp,
                    self.rng.randint(1, 9999),
                    round(self.rng.uniform(1.00, 1000.00), 2),
                    self._comment(),
                )

    def customers(self) -> Iterator[tuple]:
        for key in range(1, self.rows["customer"] + 1):
            nation = self.rng.randrange(len(_NATIONS))
            yield (
                key,
                f"Customer#{key:09d}",
                self._address(),
                nation,
                self._phone(nation),
                round(self.rng.uniform(-999.99, 9999.99), 2),
                self.rng.choice(_SEGMENTS),
                self._comment(),
            )

    def orders_and_lineitems(self) -> tuple[list[tuple], list[tuple]]:
        orders: list[tuple] = []
        lineitems: list[tuple] = []
        customers = self.rows["customer"]
        parts = self.rows["part"]
        suppliers = self.rows["supplier"]
        for key in range(1, self.rows["orders"] + 1):
            custkey = self.rng.randint(1, customers)
            order_day = _START_DATE + timedelta(
                days=self.rng.randrange(_ORDER_DATE_SPAN))
            line_count = self.rng.randint(1, 7)
            total = 0.0
            all_filled = True
            any_open = False
            for line in range(1, line_count + 1):
                part = self.rng.randint(1, parts)
                supp = self.rng.randint(1, suppliers)
                quantity = float(self.rng.randint(1, 50))
                extended = round(quantity * self.rng.uniform(900.0, 1100.0),
                                 2)
                discount = round(self.rng.uniform(0.0, 0.10), 2)
                tax = round(self.rng.uniform(0.0, 0.08), 2)
                ship_day = order_day + timedelta(
                    days=self.rng.randint(1, 121))
                commit_day = order_day + timedelta(
                    days=self.rng.randint(30, 90))
                receipt_day = ship_day + timedelta(
                    days=self.rng.randint(1, 30))
                shipped = ship_day <= date(1998, 12, 1)
                returnflag = self.rng.choice(["R", "A"]) if shipped and \
                    self.rng.random() < 0.25 else "N"
                linestatus = "F" if shipped else "O"
                if linestatus == "O":
                    all_filled = False
                    any_open = True
                total += extended * (1 + tax) * (1 - discount)
                lineitems.append((
                    key, part, supp, line, quantity, extended, discount,
                    tax, returnflag, linestatus, _iso(ship_day),
                    _iso(commit_day), _iso(receipt_day),
                    self.rng.choice(_SHIP_INSTRUCTIONS),
                    self.rng.choice(_SHIP_MODES), self._comment()))
            status = "F" if all_filled else ("O" if not any_open else "P")
            if not all_filled and any_open:
                status = "O" if self.rng.random() < 0.5 else "P"
            orders.append((
                key, custkey, status, round(total, 2), _iso(order_day),
                self.rng.choice(_PRIORITIES),
                f"Clerk#{self.rng.randint(1, 1000):09d}",
                0, self._comment()))
        return orders, lineitems

    # -- helpers ------------------------------------------------------------------

    def _comment(self) -> str:
        count = self.rng.randint(3, 8)
        return " ".join(
            self.rng.choice(_COMMENT_WORDS) for _ in range(count))

    def _address(self) -> str:
        length = self.rng.randint(10, 30)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ,"
        return "".join(self.rng.choice(alphabet) for _ in range(length))

    def _phone(self, nation: int) -> str:
        country = nation + 10
        return (f"{country}-{self.rng.randint(100, 999)}-"
                f"{self.rng.randint(100, 999)}-{self.rng.randint(1000, 9999)}")

    # -- loading -----------------------------------------------------------------

    def populate(self, conn: Connection) -> None:
        """Create and fill all eight tables through *conn*."""
        create_tpch_tables(conn)
        conn.insert("region", self.regions())
        conn.insert("nation", self.nations())
        conn.insert("supplier", self.suppliers())
        conn.insert("part", self.parts())
        conn.insert("partsupp", self.partsupps())
        conn.insert("customer", self.customers())
        orders, lineitems = self.orders_and_lineitems()
        conn.insert("orders", orders)
        conn.insert("lineitem", lineitems)


def load_tpch(scale: float = 0.001, seed: int = 0) -> Connection:
    """A fresh session populated with a TPC-H instance."""
    conn = Connection()
    TPCHGenerator(scale, seed).populate(conn)
    return conn
